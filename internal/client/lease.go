package client

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/memproto"
)

// Lease-protected reads (the serve-through path): a miss on LeaseGet
// returns a fill token instead of nothing, and only the token holder's
// LeaseSet lands. During a handover the incoming owner starts cold; leases collapse the resulting miss storm to one backing-store
// load per key, and the server parks mid-handover fills in its gutter
// pool.

// ErrLeaseRejected reports a LeaseSet whose token was consumed, expired,
// or invalidated by a concurrent write. The caller should drop its value
// and re-read.
var ErrLeaseRejected = errors.New("client: lease rejected")

// LeaseGet fetches key, returning a fill token on a miss. Exactly one of
// hit/token is meaningful: on a hit token is 0; on a miss a non-zero
// token grants this caller the right to LeaseSet the value, while token
// 0 means another client's fill is in flight — back off and retry.
func (c *Cluster) LeaseGet(key string) (value []byte, token uint64, hit bool, err error) {
	return c.LeaseGetContext(context.Background(), key)
}

// LeaseGetContext is LeaseGet bounded by ctx's deadline. A miss at the
// incoming owner of a key in flight forwards to the retiring owner
// before granting a token; a forwarded hit warms the incoming
// owner with a best-effort lease fill.
func (c *Cluster) LeaseGetContext(ctx context.Context, key string) (value []byte, token uint64, hit bool, err error) {
	primary, fallback, err := readPlan(c.table.Load(), key)
	if err != nil {
		return nil, 0, false, err
	}
	value, _, hit, token, err = c.leaseGetOn(ctx, primary, key)
	if err != nil || hit {
		return value, 0, hit, err
	}
	if fallback == "" || token == 0 {
		return nil, token, false, nil
	}
	// Miss with a granted token, retiring owner available: forward the
	// read. On a hit, spend our token warming the incoming owner so the
	// next reader hits locally; the value we return either way.
	fv, fflags, fhit, ferr := c.getOn(ctx, fallback, key)
	if ferr != nil || !fhit {
		return nil, token, false, nil // keep the fill right; caller loads the store
	}
	_ = c.leaseSetOn(ctx, primary, key, fv, fflags, token)
	return fv, 0, true, nil
}

// LeaseSet stores the value under a token granted by LeaseGet. It routes
// to the read-plan primary — the node that granted the token.
func (c *Cluster) LeaseSet(key string, value []byte, token uint64) error {
	return c.LeaseSetContext(context.Background(), key, value, token)
}

// LeaseSetContext is LeaseSet bounded by ctx's deadline.
func (c *Cluster) LeaseSetContext(ctx context.Context, key string, value []byte, token uint64) error {
	primary, _, err := readPlan(c.table.Load(), key)
	if err != nil {
		return err
	}
	return c.leaseSetOn(ctx, primary, key, value, 0, token)
}

// leaseGetOn issues one lget on node.
func (c *Cluster) leaseGetOn(ctx context.Context, node, key string) (value []byte, flags uint32, hit bool, token uint64, err error) {
	err = c.withConnCtx(ctx, node, func(conn *poolConn) error {
		conn.wbuf = memproto.AppendLeaseGet(conn.wbuf[:0], key)
		if err := conn.write(conn.wbuf); err != nil {
			return err
		}
		var err error
		value, flags, hit, token, err = conn.reply.ReadLeaseGet()
		return err
	})
	return value, flags, hit, token, err
}

// leaseSetOn issues one lset on node, mapping NOT_STORED to
// ErrLeaseRejected.
func (c *Cluster) leaseSetOn(ctx context.Context, node, key string, value []byte, flags uint32, token uint64) error {
	err := c.withConnCtx(ctx, node, func(conn *poolConn) error {
		conn.wbuf = memproto.AppendLeaseSet(conn.wbuf[:0], key, flags, 0, value, token, false)
		_, err := conn.exchange("lset", key, "STORED")
		return err
	})
	if errors.Is(err, ErrNotStored) {
		return fmt.Errorf("lset %q: %w", key, ErrLeaseRejected)
	}
	return err
}
