package pir

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/pagefile"
)

// ShardedORAM stripes the logical pages over K independent square-root
// ORAMs so concurrent reads proceed in parallel: logical page p lives at
// local index p/K of shard p mod K, and each shard is a complete SqrtORAM
// — its own AES-CTR/HMAC keys, its own shelter, its own reshuffle schedule
// — guarded by its own mutex. The structure spawns no goroutines of its
// own: concurrent callers (the worker pool of lbs.Server) serialize only
// on the shards they share, never on a structure-wide lock, so up to K
// callers execute reads at the same time.
//
// Privacy: within a shard the physical access pattern is provably
// independent of the logical one (each shard is an unmodified SqrtORAM, and
// the statistical obliviousness tests check the per-shard pattern against
// the logical sequence). Across shards the adversary additionally learns
// which shard served each read, i.e. page mod K — the classic
// parallelism/privacy dial of partition-based ORAMs. K=1 degenerates to a
// single SqrtORAM with no extra leakage; the query plans of the paper's
// schemes fetch fixed page counts per round, so deployments pick K per
// file to trade residue-class leakage for read throughput.
type ShardedORAM struct {
	numPages int
	pageSize int
	shards   []*oramShard
}

// oramShard is one independently locked sqrt-ORAM over a residue class of
// the logical pages.
type oramShard struct {
	mu   sync.Mutex
	oram *SqrtORAM
}

// NewShardedORAM builds K shards over the plaintext pages of src. A
// non-zero seed derives each shard's shuffle PRNG from seed+shard, so runs
// are reproducible while shards stay mutually independent — for tests only:
// an adversary who learns the seed can invert the permutations. seed 0
// draws every shard's shuffle seed from crypto/rand, the production mode.
// The encryption keys are always fresh from crypto/rand, one set per shard.
func NewShardedORAM(src pagefile.Reader, shards int, seed int64) (*ShardedORAM, error) {
	pages, err := materialize(src)
	if err != nil {
		return nil, err
	}
	pageSize := src.PageSize()
	if len(pages) == 0 {
		return nil, fmt.Errorf("pir: empty file")
	}
	if shards < 1 {
		return nil, fmt.Errorf("pir: %d shards", shards)
	}
	if shards > len(pages) {
		shards = len(pages) // never build empty shards
	}
	o := &ShardedORAM{
		numPages: len(pages),
		pageSize: pageSize,
		shards:   make([]*oramShard, shards),
	}
	for s := 0; s < shards; s++ {
		var local [][]byte
		for p := s; p < len(pages); p += shards {
			local = append(local, pages[p])
		}
		shardSeed := seed + int64(s)
		if seed == 0 {
			var buf [8]byte
			if _, err := rand.Read(buf[:]); err != nil {
				return nil, err
			}
			shardSeed = int64(binary.LittleEndian.Uint64(buf[:]))
		}
		oram, err := newSqrtORAMPages(local, pageSize, shardSeed)
		if err != nil {
			return nil, fmt.Errorf("pir: shard %d: %w", s, err)
		}
		o.shards[s] = &oramShard{oram: oram}
	}
	return o, nil
}

// ReadBatchInto implements Store: pages are grouped by shard so each shard
// lock is taken exactly once, and the groups run sequentially within this
// call — a batch on its own is strictly serial, which keeps a one-worker
// pool genuinely single-threaded. Parallelism comes from concurrent callers:
// while this call works inside shard A, another caller proceeds through
// shard B. Within a shard the group runs in request order, so each shard's
// access pattern stays exactly that of a serial SqrtORAM. ctx is checked at
// shard boundaries — before taking each shard lock — so a cancelled batch
// never starts another (slow, stateful) shard group but never aborts one
// midway either: a shard either served its whole group or none of it, and
// its reshuffle schedule stays coherent.
func (o *ShardedORAM) ReadBatchInto(ctx context.Context, pages []int, dst [][]byte) error {
	if err := checkBatch(o.numPages, pages, dst); err != nil {
		return err
	}
	K := len(o.shards)
	// Group batch positions by shard, preserving request order per shard.
	groups := make(map[int][]int, K)
	for i, p := range pages {
		groups[p%K] = append(groups[p%K], i)
	}
	for s, idxs := range groups {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := o.shards[s].readGroup(pages, idxs, K, dst); err != nil {
			return err
		}
	}
	return nil
}

// readGroup serves the batch positions idxs, all of this shard's residue
// class, under the shard lock.
func (sh *oramShard) readGroup(pages, idxs []int, K int, dst [][]byte) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for _, i := range idxs {
		data, err := sh.oram.read(pages[i] / K)
		if err != nil {
			return err
		}
		copy(dst[i][:len(data)], data)
	}
	return nil
}

// NumPages implements Store.
func (o *ShardedORAM) NumPages() int { return o.numPages }

// PageSize implements Store.
func (o *ShardedORAM) PageSize() int { return o.pageSize }

// NumShards returns K.
func (o *ShardedORAM) NumShards() int { return len(o.shards) }

// ShardLog returns the physical access log of one shard (for the
// obliviousness tests and audits). The caller must not race it against
// in-flight reads.
func (o *ShardedORAM) ShardLog(shard int) *AccessLog {
	return o.shards[shard].oram.Log()
}

// ShardSize returns the number of logical pages shard holds.
func (o *ShardedORAM) ShardSize(shard int) int {
	return o.shards[shard].oram.NumPages()
}
