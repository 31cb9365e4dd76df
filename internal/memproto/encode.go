package memproto

import "strconv"

// Client-side request encoders. Each Append* form writes the request after
// dst and returns the extended slice, so a caller that keeps one buffer per
// connection (the cluster client does) encodes a steady request stream
// without allocating; Format* is the same encoder over a fresh buffer, for
// one-off callers.

// AppendStore appends a storage request:
// "<verb> <key> <flags> <exptime> <bytes>[ <extra>...][ noreply]\r\n<value>\r\n".
// It serves every storage verb: set, add, replace, append and prepend
// carry no extra field, cas and lset carry their token after the byte
// count.
func AppendStore(dst []byte, verb, key string, flags uint32, exptime int64, value []byte, noreply bool, extra ...uint64) []byte {
	dst = append(dst, verb...)
	dst = append(dst, ' ')
	dst = append(dst, key...)
	dst = append(dst, ' ')
	dst = strconv.AppendUint(dst, uint64(flags), 10)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, exptime, 10)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, int64(len(value)), 10)
	for _, x := range extra {
		dst = append(dst, ' ')
		dst = strconv.AppendUint(dst, x, 10)
	}
	if noreply {
		dst = append(dst, " noreply"...)
	}
	dst = append(dst, "\r\n"...)
	dst = append(dst, value...)
	return append(dst, "\r\n"...)
}

// storeLen is an upper bound on a storage-shaped request's encoded size,
// so Format* allocates once.
func storeLen(key string, value []byte) int { return len(key) + len(value) + 80 }

// appendKeyLine appends "<verb> <key>[ <arg>][ noreply]\r\n", where arg
// is the number incr, decr and touch carry.
func appendKeyLine(dst []byte, verb, key string, noreply bool, arg ...byte) []byte {
	dst = append(dst, verb...)
	dst = append(dst, ' ')
	dst = append(dst, key...)
	if len(arg) > 0 {
		dst = append(dst, ' ')
		dst = append(dst, arg...)
	}
	if noreply {
		dst = append(dst, " noreply"...)
	}
	return append(dst, "\r\n"...)
}

// AppendLine appends "<verb>[ <arg>...]\r\n": a (multi-)get or gets, or
// a command without arguments, such as stats, flush_all or hotkeys.
func AppendLine(dst []byte, verb string, args ...string) []byte {
	dst = append(dst, verb...)
	for _, a := range args {
		dst = append(dst, ' ')
		dst = append(dst, a...)
	}
	return append(dst, "\r\n"...)
}

// FormatGet renders a (multi-)get request line.
func FormatGet(keys []string) []byte {
	n := len("get\r\n")
	for _, k := range keys {
		n += 1 + len(k)
	}
	return AppendLine(make([]byte, 0, n), "get", keys...)
}

// AppendSet appends a set request header + payload.
func AppendSet(dst []byte, key string, flags uint32, exptime int64, value []byte, noreply bool) []byte {
	return AppendStore(dst, "set", key, flags, exptime, value, noreply)
}

// FormatSet renders a set request header + payload.
func FormatSet(key string, flags uint32, exptime int64, value []byte, noreply bool) []byte {
	return AppendSet(make([]byte, 0, storeLen(key, value)), key, flags, exptime, value, noreply)
}

// AppendDelete appends a delete request line.
func AppendDelete(dst []byte, key string, noreply bool) []byte {
	return appendKeyLine(dst, "delete", key, noreply)
}

// AppendArith appends an incr or decr request line.
func AppendArith(dst []byte, verb, key string, delta uint64, noreply bool) []byte {
	var num [20]byte
	return appendKeyLine(dst, verb, key, noreply, strconv.AppendUint(num[:0], delta, 10)...)
}

// AppendTouch appends a touch request line.
func AppendTouch(dst []byte, key string, exptime int64, noreply bool) []byte {
	var num [20]byte
	return appendKeyLine(dst, "touch", key, noreply, strconv.AppendInt(num[:0], exptime, 10)...)
}

// AppendLeaseGet appends an lget request line.
func AppendLeaseGet(dst []byte, key string) []byte {
	return appendKeyLine(dst, "lget", key, false)
}

// AppendLeaseSet appends an lset request header + payload: a fill gated by
// the lease token handed out by the miss.
func AppendLeaseSet(dst []byte, key string, flags uint32, exptime int64, value []byte, token uint64, noreply bool) []byte {
	return AppendStore(dst, "lset", key, flags, exptime, value, noreply, token)
}

// FormatHKPut renders a replica value push.
func FormatHKPut(key string, flags uint32, exptime int64, value []byte, noreply bool) []byte {
	return AppendStore(make([]byte, 0, storeLen(key, value)), "hkput", key, flags, exptime, value, noreply)
}

// FormatHKDel renders a replica invalidation.
func FormatHKDel(key string, noreply bool) []byte {
	return appendKeyLine(nil, "hkdel", key, noreply)
}
