package mturk

import "strconv"

// ShardIndex routes a string key (HIT ID, task key) to one of n shards
// via FNV-1a. Every lock-striped structure in the engine — marketplace
// shards, clock-adjacent tables in taskmgr, crowd claim stripes — uses
// this single definition so the routing can never diverge.
func ShardIndex(key string, n int) int {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return int(h % uint32(n))
}

// PaddedID formats prefix + n zero-padded to at least 6 digits (the
// "%06d" wire format of HIT and task keys) without fmt overhead: IDs
// are minted on posting hot paths. It formats into a stack buffer, so
// only the ID's string is allocated.
func PaddedID(prefix string, n int64) string {
	var stack [32]byte
	buf := append(stack[:0], prefix...)
	for pad := int64(100000); n < pad && pad > 1; pad /= 10 {
		buf = append(buf, '0')
	}
	buf = strconv.AppendInt(buf, n, 10)
	return string(buf)
}
