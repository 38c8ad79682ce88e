package hgw

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"strings"

	"hgw/internal/memo"
	"hgw/internal/testbed"
)

// MemoStore is the content-addressed blob store behind shard
// memoization (WithShardMemo) and the service's persistent result
// cache: an in-memory LRU over an optional disk tier of checksummed,
// atomically-written files. See DESIGN.md §15.
type MemoStore = memo.Store

// MemoConfig bounds a MemoStore; the zero value selects the defaults
// and a memory-only store.
type MemoConfig = memo.Config

// OpenMemo opens a MemoStore. When the configured disk tier cannot be
// opened (read-only or otherwise unusable directory), OpenMemo returns
// a working memory-only store alongside the error so callers can
// degrade gracefully instead of failing the run.
func OpenMemo(cfg MemoConfig) (*MemoStore, error) { return memo.Open(cfg) }

// WithShardMemo attaches a shard memo store to a fleet run. Before
// executing a shard, the runner looks its ShardKey up in the store and,
// on a hit, replays the recorded device rows instead of building and
// sweeping the shard; on a miss, the merge step records the executed
// shard's rows under its key. Because a shard's output is a pure
// function of its ShardKey inputs, replayed shards merge
// byte-identically to executed ones (the determinism matrix proves it
// with memoization enabled), so the store is a pure throughput knob —
// like WithMaxProcs, it is deliberately absent from CacheKey. Inventory
// runs ignore it.
func WithShardMemo(store *MemoStore) Option {
	return func(s *settings) { s.memo = store }
}

// ShardKey returns the stable content address of one fleet shard's
// output: the SHA-256 (hex) of everything shard `shard` of the
// described run is a function of — the resolved experiment ids (in run
// order: sweeps share a testbed and see its history), the run seed, the
// normalized probe options (retry budget included), the fault spec when
// enabled, the shard index and the device range the partition assigns
// it.
//
// Unlike CacheKey, ShardKey deliberately excludes the global fleet
// geometry (WithFleet/WithShards totals), tags (ignored in fleet mode)
// and every concurrency knob. The profile stream is prefix-stable and
// the partition is an even split, so growing a fleet at a constant
// per-shard size — say 1024 devices over 8 shards to 1152 over 9 —
// leaves the surviving shards' device ranges, seeds and fault plans
// untouched: their keys match, and a memoized re-run simulates only the
// new shard. That is the property the reuse stack's ≥4× re-run win is
// built on (DESIGN.md §15).
//
// The options must describe a fleet request (WithFleet > 0) of
// fleet-capable experiments, and shard must be in range; an empty id
// list resolves to FleetIDs. Unknown ids return an
// *UnknownExperimentError, like Run.
func ShardKey(shard int, ids []string, opts ...Option) (string, error) {
	set := newSettings(opts)
	if set.fleet <= 0 {
		return "", fmt.Errorf("hgw: ShardKey describes fleet shards; the options lack WithFleet")
	}
	if len(ids) == 0 {
		ids = FleetIDs()
	}
	exps, err := resolveIDs(ids)
	if err != nil {
		return "", err
	}
	for _, e := range exps {
		if e.Sweep == nil {
			return "", fmt.Errorf("fleet mode: experiment %q: %w", e.ID, ErrNotFleetCapable)
		}
	}
	bounds := testbed.Partition(set.fleet, set.shards)
	if shard < 0 || shard >= len(bounds)-1 {
		return "", fmt.Errorf("hgw: shard %d out of range: a fleet of %d over %d shards has shards [0,%d)",
			shard, set.fleet, set.shards, len(bounds)-1)
	}
	return shardKey(set, exps, shard, bounds[shard], bounds[shard+1]), nil
}

// shardKey hashes canonicalShard; the runner calls it directly with
// already-resolved inputs.
func shardKey(s settings, exps []*Experiment, shard, lo, hi int) string {
	sum := sha256.Sum256([]byte(s.canonicalShard(exps, shard, lo, hi)))
	return hex.EncodeToString(sum[:])
}

// canonicalShard renders one shard's intrinsic inputs in the stable
// textual form ShardKey hashes. Everything here feeds the shard's
// execution: the device range selects its profile chunk from the
// prefix-stable synth stream, (seed, shard) derive its simulator seed,
// VLAN base, sweep rng stream and fault plan seed, the id list orders
// the sweeps on its testbed, and the normalized options and fault spec
// parameterize them. Deliberately absent: tags (fleet mode ignores
// them), fleet/shard totals and every concurrency knob (pure
// throughput), and the callback options (observation, not influence).
func (s settings) canonicalShard(exps []*Experiment, shard, lo, hi int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "shard=%d\ndevices=%d:%d\n", shard, lo, hi)
	// An enabled fault plan perturbs the shard's frames and bindings,
	// so it keys: serving a faulted run's rows for a clean request (or
	// vice versa) would be a silent wrong answer.
	s.writeRunInputs(&sb, exps)
	return sb.String()
}

// encodeShardRows serializes a shard's per-experiment device rows for
// the memo store. gob round-trips float64 samples exactly, which the
// byte-identity contract needs.
func encodeShardRows(rows [][]DeviceResult) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(rows); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// decodeShardRows is encodeShardRows' inverse. A blob that does not
// decode to exactly one row set per experiment is rejected; the caller
// treats that as a miss and re-executes the shard.
func decodeShardRows(blob []byte, wantExps int) ([][]DeviceResult, error) {
	var rows [][]DeviceResult
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&rows); err != nil {
		return nil, err
	}
	if len(rows) != wantExps {
		return nil, fmt.Errorf("memo blob holds %d experiments, want %d", len(rows), wantExps)
	}
	return rows, nil
}
