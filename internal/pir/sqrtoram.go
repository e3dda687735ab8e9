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
	"hash"
	"io"
	mrand "math/rand"

	"repro/internal/pagefile"
)

// SqrtORAM is a square-root ORAM in the spirit of Goldreich's construction:
// the trusted unit (the SCP of §3.2) stores the N logical pages encrypted
// and pseudo-randomly permuted in a server-held main area, plus sqrt(N)
// encrypted shelter slots. Each logical read scans the entire shelter and
// touches exactly one main-area slot — a fresh, never-revisited position
// whether or not the logical page was found in the shelter — so the
// server-visible physical sequence is independent of the access pattern.
// After sqrt(N) reads the structure is reshuffled under a new permutation.
//
// The server-visible side is modelled explicitly: serverMain/serverShelter
// hold only ciphertexts, and every physical touch is appended to the access
// log that the obliviousness tests inspect.
type SqrtORAM struct {
	numPages int
	pageSize int

	// Server-visible state: ciphertext slots.
	serverMain    [][]byte // N + sqrt(N) slots (real pages + dummies)
	serverShelter [][]byte // sqrt(N) slots

	// Trusted-unit (SCP) state.
	key       []byte
	perm      []int // logical slot -> physical position in serverMain
	shelter   map[int][]byte
	dummyNext int // next unread dummy slot index (logical ids N..N+sqrt-1)
	reads     int
	shelterN  int

	epoch uint64 // bumped every shuffle; part of the encryption nonce
	log   *AccessLog
	rng   io.Reader
	prng  *mrand.Rand // deterministic shuffles for reproducible tests

	// Re-encryption fast path (see kernel.go): the cipher and MAC states
	// are built once and reused, zero is the shared all-zero page (whose
	// CTR "encryption" is the raw keystream, letting dummy and shelter
	// re-encryptions skip the plaintext XOR entirely), and macBuf backs
	// the MAC sums. A SqrtORAM serializes all reads on lock (a ShardedORAM
	// shard on its shard mutex), so the shared states are never raced.
	lock   serialLock
	block  cipher.Block
	mac    hash.Hash
	macBuf []byte
	zero   []byte

	scanCounters
}

// AccessLog records every server-visible physical touch. Area is "main" or
// "shelter"; Pos is the physical slot index.
type AccessLog struct {
	Touches []Touch
}

// Touch is one physical slot access visible to the server.
type Touch struct {
	Area string
	Pos  int
}

// NewSqrtORAM builds the ORAM over the plaintext pages of src (the build
// step's in-memory file or a disk-backed container file — the pages are
// read once, encrypted and permuted into the ORAM's own storage). seed
// determines the shuffle PRNG (tests need reproducibility; production use
// would seed from crypto/rand).
func NewSqrtORAM(src pagefile.Reader, seed int64) (*SqrtORAM, error) {
	pages, err := materialize(src)
	if err != nil {
		return nil, err
	}
	return newSqrtORAMPages(pages, src.PageSize(), seed)
}

// newSqrtORAMPages builds the ORAM over an in-memory page slice.
func newSqrtORAMPages(pages [][]byte, pageSize int, seed int64) (*SqrtORAM, error) {
	n := len(pages)
	if n == 0 {
		return nil, fmt.Errorf("pir: empty file")
	}
	key := make([]byte, 32)
	if _, err := io.ReadFull(rand.Reader, key); err != nil {
		return nil, err
	}
	block, err := aes.NewCipher(key[:16])
	if err != nil {
		return nil, err
	}
	o := &SqrtORAM{
		numPages: n,
		pageSize: pageSize,
		key:      key,
		log:      &AccessLog{},
		rng:      rand.Reader,
		prng:     mrand.New(mrand.NewSource(seed)),
		lock:     newSerialLock(),
		block:    block,
		mac:      hmac.New(sha256.New, key[16:]),
		zero:     make([]byte, pageSize),
	}
	o.shelterN = isqrt(n)
	if o.shelterN < 1 {
		o.shelterN = 1
	}
	if err := o.shuffle(pages); err != nil {
		return nil, err
	}
	return o, nil
}

// shuffle (re)builds the permuted encrypted main area and clears the
// shelter. It re-encrypts every page under a new epoch, so the server
// cannot link slots across epochs.
func (o *SqrtORAM) shuffle(plain [][]byte) error {
	o.epoch++
	total := o.numPages + o.shelterN
	o.perm = o.prng.Perm(total)
	o.serverMain = make([][]byte, total)
	for logical := 0; logical < total; logical++ {
		content := o.zero // dummy page
		if logical < o.numPages {
			content = plain[logical]
		}
		ct, err := o.encrypt(uint64(logical), content)
		if err != nil {
			return err
		}
		o.serverMain[o.perm[logical]] = ct
	}
	o.serverShelter = make([][]byte, o.shelterN)
	for i := range o.serverShelter {
		ct, err := o.encrypt(uint64(total+i), o.zero)
		if err != nil {
			return err
		}
		o.serverShelter[i] = ct
	}
	o.shelter = make(map[int][]byte, o.shelterN)
	o.dummyNext = o.numPages
	o.reads = 0
	return nil
}

// ReadBatchInto implements Store: one read at a time, under the store's lock.
func (o *SqrtORAM) ReadBatchInto(ctx context.Context, pages []int, dst [][]byte) error {
	return o.lock.readBatchInto(ctx, o, pages, dst)
}

// read is one oblivious page retrieval. The caller holds the structure's
// lock, has range-checked page, and copies the result out before letting
// go: the returned slice stays in the shelter.
func (o *SqrtORAM) read(page int) ([]byte, error) {
	if o.reads >= o.shelterN {
		if err := o.reshuffleFromState(); err != nil {
			return nil, err
		}
	}

	// 1. Scan the whole shelter (server sees every slot touched).
	for i := range o.serverShelter {
		o.log.Touches = append(o.log.Touches, Touch{Area: "shelter", Pos: i})
	}
	content, inShelter := o.shelter[page]

	// 2. Touch exactly one main-area slot: the target if it was not
	// sheltered, otherwise the next unread dummy. Either way the position
	// is fresh uniform-random to the server.
	var logical int
	if inShelter {
		logical = o.dummyNext
		o.dummyNext++
	} else {
		logical = page
	}
	phys := o.perm[logical]
	o.log.Touches = append(o.log.Touches, Touch{Area: "main", Pos: phys})
	ct := o.serverMain[phys]
	pt, err := o.decrypt(uint64(logical), ct)
	if err != nil {
		return nil, err
	}
	if !inShelter {
		content = pt
	}

	// 3. Write the page into the shelter (server sees a full shelter
	// rewrite; re-encrypted so slots are unlinkable).
	o.shelter[page] = content
	o.reads++
	shelterEpochTag := o.epoch<<32 | uint64(o.reads)
	for i := range o.serverShelter {
		// Re-encrypt in place: the slot's previous ciphertext buffer is
		// exactly the size the fresh one needs, so the sqrt(N)-slot rewrite
		// performed on every read allocates nothing.
		ct, err := o.encryptInto(o.serverShelter[i][:0], shelterEpochTag+uint64(i)<<16, o.zero)
		if err != nil {
			return nil, err
		}
		o.serverShelter[i] = ct
	}

	// Every read costs the same fixed slot count — shelter scan, one main
	// touch, shelter rewrite — exactly the obliviousness property.
	o.recordScan(uint64(2*o.shelterN+1), 1)
	return content, nil
}

// reshuffleFromState decrypts the current state back to plaintext pages and
// rebuilds the structure (the epoch-ending reorganization; in [36] this is
// the amortized O(log^2 N) cost).
func (o *SqrtORAM) reshuffleFromState() error {
	plain := make([][]byte, o.numPages)
	for logical := 0; logical < o.numPages; logical++ {
		if c, ok := o.shelter[logical]; ok {
			plain[logical] = c
			continue
		}
		pt, err := o.decrypt(uint64(logical), o.serverMain[o.perm[logical]])
		if err != nil {
			return err
		}
		plain[logical] = pt
	}
	// The epoch-ending reorganization touches every page once; its timing
	// is a pure function of the read count, never of which pages were read.
	o.recordScan(uint64(o.numPages), 1)
	return o.shuffle(plain)
}

// NumPages implements Store.
func (o *SqrtORAM) NumPages() int { return o.numPages }

// PageSize implements Store.
func (o *SqrtORAM) PageSize() int { return o.pageSize }

// Log returns the physical access log (for tests and audits).
func (o *SqrtORAM) Log() *AccessLog { return o.log }

// ShelterSize returns sqrt(N): reads per epoch.
func (o *SqrtORAM) ShelterSize() int { return o.shelterN }

// encrypt AES-CTR encrypts content under a nonce derived from the epoch and
// slot tag, and appends an HMAC-SHA256 tag (the SCP of §3.2 is
// tamper-detecting; the adversary is honest-but-curious, but integrity is
// cheap and catches storage corruption).
func (o *SqrtORAM) encrypt(tag uint64, content []byte) ([]byte, error) {
	return o.encryptInto(nil, tag, content)
}

// encryptInto is the re-encryption fast path: it seals content into dst's
// backing array (growing it only when too small), so the per-read shelter
// rewrite — sqrt(N) slot re-encryptions on EVERY read — recycles the slot
// buffers instead of allocating sqrt(N) pages per read. The keystream is
// materialized by "encrypting" the shared zero page; content is then folded
// in with the kernel's word-wide XOR, which the all-zero dummy and shelter
// contents skip entirely.
func (o *SqrtORAM) encryptInto(dst []byte, tag uint64, content []byte) ([]byte, error) {
	if len(content) != o.pageSize {
		return nil, fmt.Errorf("pir: encrypt %d bytes, page size %d", len(content), o.pageSize)
	}
	need := o.pageSize + sha256.Size
	if cap(dst) < need {
		dst = make([]byte, need)
	}
	dst = dst[:need]
	var iv [aes.BlockSize]byte
	binary.LittleEndian.PutUint64(iv[:], o.epoch)
	binary.LittleEndian.PutUint64(iv[8:], tag)
	body := dst[:o.pageSize]
	cipher.NewCTR(o.block, iv[:]).XORKeyStream(body, o.zero)
	if len(content) > 0 && &content[0] != &o.zero[0] {
		xorBytes(body, content)
	}
	o.mac.Reset()
	o.mac.Write(iv[:])
	o.mac.Write(body)
	o.macBuf = o.mac.Sum(o.macBuf[:0])
	copy(dst[o.pageSize:], o.macBuf)
	return dst, nil
}

func (o *SqrtORAM) decrypt(tag uint64, ct []byte) ([]byte, error) {
	if len(ct) < sha256.Size {
		return nil, fmt.Errorf("pir: ciphertext too short")
	}
	body, sum := ct[:len(ct)-sha256.Size], ct[len(ct)-sha256.Size:]
	var iv [aes.BlockSize]byte
	binary.LittleEndian.PutUint64(iv[:], o.epoch)
	binary.LittleEndian.PutUint64(iv[8:], tag)
	o.mac.Reset()
	o.mac.Write(iv[:])
	o.mac.Write(body)
	o.macBuf = o.mac.Sum(o.macBuf[:0])
	if !hmac.Equal(o.macBuf, sum) {
		return nil, fmt.Errorf("pir: page authentication failed (storage tampered?)")
	}
	pt := make([]byte, len(body))
	cipher.NewCTR(o.block, iv[:]).XORKeyStream(pt, body)
	return pt, nil
}

func isqrt(n int) int {
	r := 0
	for (r+1)*(r+1) <= n {
		r++
	}
	return r
}
