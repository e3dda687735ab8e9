package pir

import (
	"context"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/pagefile"
)

// PyramidORAM is a hierarchical ("pyramid") ORAM in the lineage of
// Goldreich–Ostrovsky, the construction the paper's PIR protocol of Williams
// & Sion [36] descends from and whose cost shape (one bucket per level per
// query, amortized O(log² N) reshuffling) the cost model simulates.
//
// Levels ℓ = 1..L hold 2^ℓ buckets of fixed capacity; an item's bucket at
// level ℓ is a per-epoch keyed PRF of its id. A query scans exactly one
// bucket per level, top to bottom — the real one until the item is found,
// fresh-random dummies below — then rewrites the item into the top level.
// After every 2^ℓ queries, level ℓ is merged into level ℓ+1 under a fresh
// key. The server therefore observes, for every query, the same shape (one
// bucket per level) at PRF-random positions, independent of the logical
// access sequence.
//
// Everything the server would store is kept as ciphertext (AES-CTR +
// HMAC-SHA256), and every bucket touch is appended to the access log that
// the obliviousness tests inspect.
type PyramidORAM struct {
	numPages int
	pageSize int
	levels   []pyLevel
	key      []byte     // master key; per-level/epoch PRF keys derive from it
	lock     serialLock // one stateful structure: one read at a time
	count    uint64     // queries answered since construction
	dummySeq uint64     // fresh-dummy counter (never repeats)
	log      *AccessLog
	rng      io.Reader
	// stash holds items that overflowed their bucket during a merge. A
	// production implementation sizes buckets so this never happens w.h.p.;
	// the model keeps correctness unconditional and exposes the count so
	// tests can assert it stays tiny.
	stash       map[int][]byte
	StashPeak   int
	bucketCap   int
	totalLevels int
}

// pyLevel is one pyramid level: server-held encrypted buckets plus the
// SCP-held epoch number (the PRF key component).
type pyLevel struct {
	buckets [][]byte // ciphertext per bucket
	epoch   uint64
	live    int // real items currently in the level (SCP bookkeeping)
}

// pyItem is the plaintext bucket slot layout: u32 id (+1; 0 = empty),
// pageSize bytes of data.
func pyItemSize(pageSize int) int { return 4 + pageSize }

// NewPyramidORAM builds the pyramid over the plaintext pages of src (read
// once into the encrypted level hierarchy).
func NewPyramidORAM(src pagefile.Reader) (*PyramidORAM, error) {
	pages, err := materialize(src)
	if err != nil {
		return nil, err
	}
	pageSize := src.PageSize()
	n := len(pages)
	if n == 0 {
		return nil, fmt.Errorf("pir: empty file")
	}
	key := make([]byte, 32)
	if _, err := io.ReadFull(rand.Reader, key); err != nil {
		return nil, err
	}
	L := 1
	for 1<<L < 2*n {
		L++
	}
	bucketCap := 4
	for 1<<bucketCap < n { // ≈ log2(n), floored at 4
		bucketCap++
	}
	o := &PyramidORAM{
		numPages:    n,
		pageSize:    pageSize,
		key:         key,
		lock:        newSerialLock(),
		log:         &AccessLog{},
		rng:         rand.Reader,
		stash:       map[int][]byte{},
		bucketCap:   bucketCap,
		totalLevels: L,
	}
	o.levels = make([]pyLevel, L+1) // levels[1..L]
	for l := 1; l <= L; l++ {
		o.levels[l].epoch = 1
		o.levels[l].buckets = make([][]byte, 1<<l)
	}
	// Install everything in the bottom level.
	items := map[int][]byte{}
	for i, p := range pages {
		items[i] = p
	}
	if err := o.rebuildLevel(L, items); err != nil {
		return nil, err
	}
	return o, nil
}

// ReadBatchInto implements Store: one read at a time, under the store's lock.
func (o *PyramidORAM) ReadBatchInto(ctx context.Context, pages []int, dst [][]byte) error {
	return o.lock.readBatchInto(ctx, o, pages, dst)
}

// read is one oblivious page retrieval; the caller holds the structure's
// lock and has range-checked page.
func (o *PyramidORAM) read(page int) ([]byte, error) {
	var content []byte
	if c, ok := o.stash[page]; ok {
		content = c
	}
	// One bucket per level, top to bottom.
	for l := 1; l <= o.totalLevels; l++ {
		var bucket int
		if content == nil {
			bucket = o.prfBucket(l, o.levels[l].epoch, uint64(page), false)
		} else {
			o.dummySeq++
			bucket = o.prfBucket(l, o.levels[l].epoch, o.dummySeq, true)
		}
		o.log.Touches = append(o.log.Touches, Touch{Area: fmt.Sprintf("level%d", l), Pos: bucket})
		items, err := o.openBucket(l, bucket)
		if err != nil {
			return nil, err
		}
		if content == nil {
			for id, data := range items {
				if id == page {
					content = data
				}
			}
		}
	}
	if content == nil {
		return nil, fmt.Errorf("pir: page %d lost (pyramid invariant broken)", page)
	}

	// Rewrite the freshest copy into the top level (shadowing lower
	// copies), then run the merge cascade.
	delete(o.stash, page)
	o.stash[page] = contentCopy(content)
	o.count++
	if err := o.cascade(); err != nil {
		return nil, err
	}
	if len(o.stash) > o.StashPeak {
		o.StashPeak = len(o.stash)
	}
	return content, nil
}

// cascade merges levels after a query: level ℓ spills downward every 2^ℓ
// queries. The top "level 0" is the stash, spilled every query into level 1.
func (o *PyramidORAM) cascade() error {
	// Find the deepest level due for a rebuild.
	deepest := 1
	for l := 1; l < o.totalLevels; l++ {
		if o.count%(1<<uint(l)) == 0 {
			deepest = l + 1
		}
	}
	// Collect items from the stash and all levels above `deepest`, newest
	// first so fresher copies shadow staler ones.
	merged := map[int][]byte{}
	for id, c := range o.stash {
		merged[id] = c
	}
	o.stash = map[int][]byte{}
	for l := 1; l <= deepest; l++ {
		items, err := o.drainLevel(l)
		if err != nil {
			return err
		}
		for id, c := range items {
			if _, ok := merged[id]; !ok {
				merged[id] = c
			}
		}
		if l < deepest {
			if err := o.rebuildLevel(l, nil); err != nil {
				return err
			}
		}
	}
	return o.rebuildLevel(deepest, merged)
}

// drainLevel decrypts all real items of a level (the reshuffle's read pass;
// the server sees a full sequential scan, which is data-independent).
func (o *PyramidORAM) drainLevel(l int) (map[int][]byte, error) {
	out := map[int][]byte{}
	for b := range o.levels[l].buckets {
		items, err := o.openBucket(l, b)
		if err != nil {
			return nil, err
		}
		for id, c := range items {
			out[id] = c
		}
	}
	return out, nil
}

// rebuildLevel re-creates level l under a fresh epoch containing exactly the
// given items; overflowing items go to the stash.
func (o *PyramidORAM) rebuildLevel(l int, items map[int][]byte) error {
	o.levels[l].epoch++
	buckets := make([]map[int][]byte, len(o.levels[l].buckets))
	for i := range buckets {
		buckets[i] = map[int][]byte{}
	}
	live := 0
	for id, c := range items {
		b := o.prfBucket(l, o.levels[l].epoch, uint64(id), false)
		if len(buckets[b]) >= o.bucketCap {
			o.stash[id] = c // overflow; kept correct, counted by tests
			continue
		}
		buckets[b][id] = c
		live++
	}
	o.levels[l].live = live
	for b := range buckets {
		ct, err := o.sealBucket(l, b, buckets[b])
		if err != nil {
			return err
		}
		o.levels[l].buckets[b] = ct
	}
	return nil
}

// prfBucket maps an id (or dummy counter) to a bucket of level l in the
// given epoch via HMAC-SHA256.
func (o *PyramidORAM) prfBucket(l int, epoch, id uint64, dummy bool) int {
	mac := hmac.New(sha256.New, o.key[16:])
	var buf [25]byte
	binary.LittleEndian.PutUint64(buf[0:], uint64(l))
	binary.LittleEndian.PutUint64(buf[8:], epoch)
	binary.LittleEndian.PutUint64(buf[16:], id)
	if dummy {
		buf[24] = 1
	}
	mac.Write(buf[:])
	h := mac.Sum(nil)
	return int(binary.LittleEndian.Uint64(h) % uint64(len(o.levels[l].buckets)))
}

// sealBucket encrypts a bucket's (padded) slots.
func (o *PyramidORAM) sealBucket(l, b int, items map[int][]byte) ([]byte, error) {
	slot := pyItemSize(o.pageSize)
	plain := make([]byte, o.bucketCap*slot)
	i := 0
	for id, c := range items {
		binary.LittleEndian.PutUint32(plain[i*slot:], uint32(id)+1)
		copy(plain[i*slot+4:], c)
		i++
	}
	block, err := aes.NewCipher(o.key[:16])
	if err != nil {
		return nil, err
	}
	iv := make([]byte, aes.BlockSize)
	if _, err := io.ReadFull(o.rng, iv); err != nil {
		return nil, err
	}
	ct := make([]byte, len(plain))
	cipher.NewCTR(block, iv).XORKeyStream(ct, plain)
	mac := hmac.New(sha256.New, o.key[16:])
	mac.Write(iv)
	mac.Write(ct)
	out := append(append(iv, ct...), mac.Sum(nil)...)
	return out, nil
}

// openBucket decrypts a bucket and returns its real items.
func (o *PyramidORAM) openBucket(l, b int) (map[int][]byte, error) {
	ct := o.levels[l].buckets[b]
	if ct == nil {
		return nil, nil
	}
	if len(ct) < aes.BlockSize+sha256.Size {
		return nil, fmt.Errorf("pir: bucket ciphertext too short")
	}
	iv := ct[:aes.BlockSize]
	body := ct[aes.BlockSize : len(ct)-sha256.Size]
	sum := ct[len(ct)-sha256.Size:]
	mac := hmac.New(sha256.New, o.key[16:])
	mac.Write(iv)
	mac.Write(body)
	if !hmac.Equal(mac.Sum(nil), sum) {
		return nil, fmt.Errorf("pir: bucket authentication failed")
	}
	block, err := aes.NewCipher(o.key[:16])
	if err != nil {
		return nil, err
	}
	plain := make([]byte, len(body))
	cipher.NewCTR(block, iv).XORKeyStream(plain, body)
	slot := pyItemSize(o.pageSize)
	out := map[int][]byte{}
	for i := 0; i+slot <= len(plain); i += slot {
		id := binary.LittleEndian.Uint32(plain[i:])
		if id == 0 {
			continue
		}
		out[int(id-1)] = contentCopy(plain[i+4 : i+slot])
	}
	return out, nil
}

// NumPages implements Store.
func (o *PyramidORAM) NumPages() int { return o.numPages }

// PageSize implements Store.
func (o *PyramidORAM) PageSize() int { return o.pageSize }

// Log returns the physical access log.
func (o *PyramidORAM) Log() *AccessLog { return o.log }

// Levels returns the pyramid depth.
func (o *PyramidORAM) Levels() int { return o.totalLevels }

func contentCopy(b []byte) []byte {
	out := make([]byte, len(b))
	copy(out, b)
	return out
}
