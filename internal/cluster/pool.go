package cluster

import "sync"

// encBufPool recycles wire-encoding buffers across shuffle writes, remote
// fetches and broadcasts, so steady-state iterations serialize into warm
// buffers instead of allocating fresh ones. DecodeRowsAppend copies string
// payloads out of its input, which is what makes immediate recycling safe.
//
// As a package-level mutable it needs no guarding mutex: sync.Pool is its
// own synchronization, and the pooldiscipline analyzer enforces the Get/Put
// pairing.
var encBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// getEncBuf hands out a pooled encoding buffer; every Get must reach a
// putEncBuf, which the pooldiscipline analyzer enforces at call sites.
//
//rasql:pool-get
//rasql:noalloc
func getEncBuf() *[]byte {
	//rasql:allow noalloc -- steady state reuses a warm buffer; only a pool miss falls through to New
	return encBufPool.Get().(*[]byte)
}

// putEncBuf returns a buffer to the pool, truncated so the next user
// cannot observe stale bytes.
//
//rasql:pool-put
//rasql:noalloc
func putEncBuf(b *[]byte) {
	*b = (*b)[:0]
	//rasql:allow noalloc -- Pool.Put may grow a per-P shard once; amortized across recycles
	encBufPool.Put(b)
}
