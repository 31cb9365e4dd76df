// Package store models the persistent database tier behind the cache
// (Section V-A): an ardb/RocksDB-style KV store holding the full dataset,
// whose latency is low until the offered load approaches its capacity
// r_DB, past which latency "rises abruptly" — the knee the paper profiles
// at ~40,000 req/s and feeds into Eq. (1).
//
// The dataset is deterministic: every key's value is synthesized from its
// rank, so no gigabytes are resident, yet both the real-TCP testbed and
// the simulator see identical, stable data.
package store

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/workload"
)

var (
	// ErrUnknownKey is returned for keys outside the dataset.
	ErrUnknownKey = errors.New("store: key not in dataset")
	// ErrBadConfig is returned for invalid construction parameters.
	ErrBadConfig = errors.New("store: invalid configuration")
)

// Dataset is the deterministic backing dataset: keys k0000000000 …
// k<n-1>, with Generalized-Pareto value sizes (Section V-A2's ~19M pairs,
// ~6 GB — scaled down in tests).
type Dataset struct {
	n     uint64
	scale float64
	shape float64
	min   int
	max   int
}

// DatasetOption configures a Dataset.
type DatasetOption interface {
	apply(*datasetOptions)
}

type datasetOptions struct {
	scale, shape float64
	min, max     int
}

type datasetPareto struct{ scale, shape float64 }

func (o datasetPareto) apply(opts *datasetOptions) { opts.scale, opts.shape = o.scale, o.shape }

// WithPareto overrides the value-size distribution parameters.
func WithPareto(scale, shape float64) DatasetOption { return datasetPareto{scale: scale, shape: shape} }

type datasetBounds struct{ min, max int }

func (o datasetBounds) apply(opts *datasetOptions) { opts.min, opts.max = o.min, o.max }

// WithSizeBounds clamps value sizes to [min, max] bytes.
func WithSizeBounds(minSize, maxSize int) DatasetOption {
	return datasetBounds{min: minSize, max: maxSize}
}

// NewDataset creates a dataset of n keys.
func NewDataset(n uint64, opts ...DatasetOption) (*Dataset, error) {
	if n == 0 {
		return nil, fmt.Errorf("%w: empty dataset", ErrBadConfig)
	}
	options := datasetOptions{
		scale: workload.DefaultParetoScale,
		shape: workload.DefaultParetoShape,
		min:   workload.DefaultMinValueSize,
		max:   workload.DefaultMaxValueSize,
	}
	for _, o := range opts {
		o.apply(&options)
	}
	if options.scale <= 0 || options.min < 1 || options.max < options.min {
		return nil, fmt.Errorf("%w: pareto(%v) bounds [%d, %d]", ErrBadConfig,
			options.scale, options.min, options.max)
	}
	return &Dataset{
		n:     n,
		scale: options.scale,
		shape: options.shape,
		min:   options.min,
		max:   options.max,
	}, nil
}

// RankOf parses the rank from a canonical key name. A tenant namespace
// prefix ("tenant/k00042") is ignored: the simulated database is
// namespace-agnostic, every tenant reads the same backing records.
func (d *Dataset) RankOf(key string) (uint64, error) {
	if i := strings.LastIndexByte(key, '/'); i >= 0 {
		key = key[i+1:]
	}
	if len(key) < 2 || key[0] != 'k' {
		return 0, fmt.Errorf("%w: %q", ErrUnknownKey, key)
	}
	digits := strings.TrimLeft(key[1:], "0")
	if digits == "" {
		digits = "0"
	}
	rank, err := strconv.ParseUint(digits, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("%w: %q", ErrUnknownKey, key)
	}
	if rank >= d.n {
		return 0, fmt.Errorf("%w: %q (rank %d >= %d)", ErrUnknownKey, key, rank, d.n)
	}
	return rank, nil
}

// Contains reports whether the key belongs to the dataset.
func (d *Dataset) Contains(key string) bool {
	_, err := d.RankOf(key)
	return err == nil
}

// SizeOf returns the value size of a rank.
func (d *Dataset) SizeOf(rank uint64) int {
	return workload.SizeForRank(rank, d.scale, d.shape, d.min, d.max)
}

// Value synthesizes the value bytes for a key: a deterministic xorshift
// stream seeded by the rank, so repeated reads agree byte-for-byte.
func (d *Dataset) Value(key string) ([]byte, error) {
	rank, err := d.RankOf(key)
	if err != nil {
		return nil, err
	}
	size := d.SizeOf(rank)
	out := make([]byte, size)
	x := rank*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
	for i := 0; i < size; i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		for j := 0; j < 8 && i+j < size; j++ {
			out[i+j] = byte(x >> (8 * j))
		}
	}
	return out, nil
}

// LatencyModel maps offered load to database access latency with an
// M/M/1-style knee at Capacity: flat near Base at low load, then rising
// sharply as utilization approaches 1, clamped at Max.
type LatencyModel struct {
	// Base is the unloaded access latency (disk/SSD read path).
	Base time.Duration
	// Capacity is r_DB in requests/second.
	Capacity float64
	// Max clamps the saturated latency.
	Max time.Duration
}

// Validate checks the model parameters.
func (m LatencyModel) Validate() error {
	if m.Base <= 0 || m.Capacity <= 0 || m.Max < m.Base {
		return fmt.Errorf("%w: latency model %+v", ErrBadConfig, m)
	}
	return nil
}

// LatencyAt returns the modeled access latency at the given offered rate.
func (m LatencyModel) LatencyAt(rate float64) time.Duration {
	if rate <= 0 {
		return m.Base
	}
	rho := rate / m.Capacity
	if rho >= 0.999 {
		return m.Max
	}
	lat := time.Duration(float64(m.Base) / (1 - rho))
	if lat > m.Max {
		return m.Max
	}
	return lat
}

// DB is the database tier: a Dataset served through a LatencyModel, with a
// sliding-window arrival-rate estimator driving the modeled latency.
type DB struct {
	dataset *Dataset
	model   LatencyModel
	now     func() time.Time

	mu       sync.Mutex
	buckets  [ratebuckets]int64
	stamps   [ratebuckets]int64 // unix-100ms epoch of each bucket
	lastRate float64
}

// ratebuckets is the number of 100 ms buckets in the 1-second rate window.
const ratebuckets = 10

// DBOption configures a DB.
type DBOption interface {
	apply(*dbOptions)
}

type dbOptions struct {
	now func() time.Time
}

type dbClockOption struct{ now func() time.Time }

func (o dbClockOption) apply(opts *dbOptions) { opts.now = o.now }

// WithClock injects the DB's time source (the simulator's virtual clock).
func WithClock(now func() time.Time) DBOption { return dbClockOption{now: now} }

// NewDB creates the database tier.
func NewDB(dataset *Dataset, model LatencyModel, opts ...DBOption) (*DB, error) {
	if dataset == nil {
		return nil, fmt.Errorf("%w: nil dataset", ErrBadConfig)
	}
	if err := model.Validate(); err != nil {
		return nil, err
	}
	options := dbOptions{now: time.Now}
	for _, o := range opts {
		o.apply(&options)
	}
	return &DB{dataset: dataset, model: model, now: options.now}, nil
}

// Get reads a key: it records the arrival, returns the value and the
// modeled latency the read would take at the current load. Callers in the
// real-TCP path sleep for the latency; the simulator adds it to virtual
// time.
func (db *DB) Get(key string) ([]byte, time.Duration, error) {
	rate := db.recordArrival()
	value, err := db.dataset.Value(key)
	if err != nil {
		return nil, 0, err
	}
	return value, db.model.LatencyAt(rate), nil
}

// Rate returns the most recent arrival-rate estimate in req/s.
func (db *DB) Rate() float64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.lastRate
}

// Dataset exposes the backing dataset.
func (db *DB) Dataset() *Dataset { return db.dataset }

// recordArrival bumps the current 100 ms bucket and returns the summed
// 1-second window rate.
func (db *DB) recordArrival() float64 {
	epoch := db.now().UnixNano() / int64(100*time.Millisecond)
	db.mu.Lock()
	defer db.mu.Unlock()
	idx := int(epoch % ratebuckets)
	if db.stamps[idx] != epoch {
		db.stamps[idx] = epoch
		db.buckets[idx] = 0
	}
	db.buckets[idx]++

	var count int64
	for i := 0; i < ratebuckets; i++ {
		if epoch-db.stamps[i] < ratebuckets {
			count += db.buckets[i]
		}
	}
	db.lastRate = float64(count) // requests in the last ~1 s window
	return db.lastRate
}
