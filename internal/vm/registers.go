package vm

import (
	"fmt"
	"sync"

	"bohrium/internal/bytecode"
	"bohrium/internal/faultinject"
	"bohrium/internal/tensor"
)

// poolKey identifies a freelist bucket: buffers are interchangeable exactly
// when they store the same dtype at the same length.
type poolKey struct {
	dt tensor.DType
	n  int
}

// maxPooledPerKey caps each freelist bucket so a burst of frees cannot pin
// unbounded memory; beyond the cap, freed buffers go back to the GC.
const maxPooledPerKey = 32

// defaultPoolCapBytes bounds the bytes parked across ALL freelist buckets,
// so a long-lived engine that marches through many distinct array sizes
// cannot accumulate 32 stale buffers per size forever. Once full, freed
// buffers go back to the GC instead of the pool.
const defaultPoolCapBytes = 256 << 20

// bufferPool is the size-and-dtype-keyed buffer freelist. It lives on the
// Engine, not the register file, so buffers one session frees recycle into
// allocations made by any other session on the same engine — the shared
// half of the register lifecycle. All methods are safe for concurrent use.
// One mutex guards all buckets: the critical sections are O(1) slice
// pops/pushes, a few per flush per session, far from the per-sweep hot
// path. If profiles ever show this lock under very high session counts,
// shard the buckets by poolKey hash the way the plan cache shards by
// fingerprint (the byte budget then splits per shard).
type bufferPool struct {
	mu          sync.Mutex
	buckets     map[poolKey][]tensor.Buffer // guarded by mu
	pooledBytes int                         // guarded by mu: bytes currently parked across all buckets
	capBytes    int                         // immutable after newBufferPool: pooledBytes bound
}

func newBufferPool(capBytes int) *bufferPool {
	if capBytes <= 0 {
		capBytes = defaultPoolCapBytes
	}
	return &bufferPool{buckets: map[poolKey][]tensor.Buffer{}, capBytes: capBytes}
}

// take removes and returns a pooled buffer for key, or nil when the bucket
// is empty. The caller is responsible for zeroing before reuse.
func (bp *bufferPool) take(key poolKey) tensor.Buffer {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	list := bp.buckets[key]
	if len(list) == 0 {
		return nil
	}
	buf := list[len(list)-1]
	bp.buckets[key] = list[:len(list)-1]
	bp.pooledBytes -= key.n * key.dt.Size()
	return buf
}

// put parks a freed buffer for reuse, unless its bucket is full or the
// byte bound would be exceeded (then the buffer goes back to the GC).
func (bp *bufferPool) put(buf tensor.Buffer) {
	key := poolKey{dt: buf.DType(), n: buf.Len()}
	bytes := key.n * key.dt.Size()
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if len(bp.buckets[key]) < maxPooledPerKey && bp.pooledBytes+bytes <= bp.capBytes {
		bp.buckets[key] = append(bp.buckets[key], buf)
		bp.pooledBytes += bytes
	}
}

// bytes reports the bytes currently parked across all buckets.
func (bp *bufferPool) bytes() int {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return bp.pooledBytes
}

// drain empties every bucket, handing all parked buffers to the GC —
// the memory-pressure release valve. Future puts refill normally.
func (bp *bufferPool) drain() {
	bp.mu.Lock()
	bp.buckets = map[poolKey][]tensor.Buffer{}
	bp.pooledBytes = 0
	bp.mu.Unlock()
}

// registerFile maps byte-code registers to buffers. Buffers are allocated
// lazily at first definition and released by BH_FREE, mirroring Bohrium's
// base-array lifecycle. Released buffers that the VM itself allocated are
// handed to the engine's shared bufferPool and come back out (zeroed) at
// the next matching allocation — possibly in a different session — so
// flush-per-iteration workloads stop paying an allocation per temporary
// per sweep. Buffers bound from outside (front-end input arrays) are never
// pooled — the caller owns them. The register file itself is per-session
// state: only its machine's goroutines touch it.
type registerFile struct {
	bufs   []tensor.Buffer
	owned  []bool       // owned[r]: bufs[r] was allocated here, safe to recycle
	shared *bufferPool  // engine-owned freelist; nil in zero-value files
	stats  *atomicStats // counters live on the Machine; nil in zero-value files
	eng    *Engine      // live-byte accounting + watermark; nil in zero-value files
	label  string       // faultinject site label (the machine's Config.FaultLabel)
}

func (rf *registerFile) grow(n int) {
	for len(rf.bufs) < n {
		rf.bufs = append(rf.bufs, nil)
		rf.owned = append(rf.owned, false)
	}
}

func (rf *registerFile) bind(r bytecode.RegID, buf tensor.Buffer) {
	rf.grow(int(r) + 1)
	rf.bufs[r] = buf
	rf.owned[r] = false
}

func (rf *registerFile) get(r bytecode.RegID) tensor.Buffer {
	if int(r) >= len(rf.bufs) {
		return nil
	}
	return rf.bufs[r]
}

// input returns the buffer input register r already holds, which must fit
// p's declaration of r (see checkDecl).
func (rf *registerFile) input(p *bytecode.Program, r bytecode.RegID) (tensor.Buffer, error) {
	buf := rf.get(r)
	if buf == nil {
		return nil, fmt.Errorf("input register %s has no buffer", r)
	}
	info, ok := p.Reg(r)
	if !ok {
		return nil, fmt.Errorf("register %s not declared", r)
	}
	if err := rf.checkDecl(r, info); err != nil {
		return nil, err
	}
	return buf, nil
}

// checkDecl reports whether the buffer r holds fits the current program's
// declaration of r. Every view of a validated program lies inside its
// register's declared length, and every compiled loop assumes the declared
// dtype, so this check is what keeps them inside their buffers. A buffer
// this file allocated was sized from an earlier declaration and must match
// the new one exactly: a different dtype or length means the program
// redeclared a live register (free it first). A buffer bound from outside
// must have the declared dtype and at least the declared length — callers
// may bind a larger array and address a prefix of it.
func (rf *registerFile) checkDecl(r bytecode.RegID, info bytecode.RegInfo) error {
	buf := rf.bufs[r]
	n := buf.Len()
	if buf.DType() == info.DType && (n == info.Len || (!rf.owned[r] && n > info.Len)) {
		return nil
	}
	return fmt.Errorf("register %s is declared %v[%d] but holds a %v[%d] buffer",
		r, info.DType, info.Len, buf.DType(), n)
}

// ensure returns the buffer for r, materializing it from the declaration if
// the register has no buffer yet — from the shared recycle pool when a
// buffer of the right dtype and length is parked there, freshly allocated
// otherwise. A buffer r already holds must fit p's declaration (see
// checkDecl).
func (rf *registerFile) ensure(p *bytecode.Program, r bytecode.RegID) (tensor.Buffer, error) {
	rf.grow(len(p.Regs))
	info, ok := p.Reg(r)
	if !ok {
		return nil, fmt.Errorf("register %s not declared", r)
	}
	if buf := rf.bufs[r]; buf != nil {
		if err := rf.checkDecl(r, info); err != nil {
			return nil, err
		}
		return buf, nil
	}
	if err := faultinject.Error(faultinject.AllocFail, rf.label); err != nil {
		return nil, err
	}
	bytes := info.Len * info.DType.Size()
	if rf.shared != nil {
		if buf := rf.shared.take(poolKey{dt: info.DType, n: info.Len}); buf != nil {
			buf.Zero() // fresh allocations are zeroed; reuse must match
			if rf.eng != nil {
				rf.eng.adoptBytes(bytes)
			}
			if rf.stats != nil {
				rf.stats.poolHits.Add(1)
			}
			rf.bufs[r] = buf
			rf.owned[r] = true
			return buf, nil
		}
	}
	if rf.eng != nil {
		if err := rf.eng.reserveBytes(bytes); err != nil {
			return nil, err
		}
	}
	buf, err := tensor.NewBuffer(info.DType, info.Len)
	if err != nil {
		if rf.eng != nil {
			rf.eng.releaseBytes(bytes)
		}
		return nil, err
	}
	if rf.stats != nil {
		rf.stats.buffersAllocated.Add(1)
		rf.stats.bytesAllocated.Add(int64(bytes))
	}
	rf.bufs[r] = buf
	rf.owned[r] = true
	return buf, nil
}

// free releases register r. VM-owned buffers return to the shared freelist
// for reuse; externally bound buffers are only unlinked.
func (rf *registerFile) free(r bytecode.RegID) {
	if int(r) >= len(rf.bufs) || rf.bufs[r] == nil {
		return
	}
	buf := rf.bufs[r]
	rf.bufs[r] = nil
	if !rf.owned[r] {
		return
	}
	rf.owned[r] = false
	if rf.eng != nil {
		rf.eng.releaseBytes(buf.Len() * buf.DType().Size())
	}
	if rf.shared != nil {
		rf.shared.put(buf)
	}
}
