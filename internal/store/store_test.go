package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/layoutio"
	"repro/internal/metrics"
	"repro/internal/netlist"
	"repro/internal/qlegal"
)

// testLayout builds a small valid layout whose placement varies with
// seed, so distinct keys store distinguishable content.
func testLayout(t testing.TB, seed int) *core.Layout {
	t.Helper()
	n := &netlist.Netlist{
		Name: fmt.Sprintf("test-%d", seed), W: 20, H: 20, BlockSize: 1,
		Qubits: []netlist.Qubit{
			{ID: 0, Pos: geom.Pt{X: 2 + float64(seed), Y: 3}, Size: 2, Freq: 5.1},
			{ID: 1, Pos: geom.Pt{X: 9, Y: 4 + float64(seed)}, Size: 2, Freq: 5.3},
		},
		Resonators: []netlist.Resonator{
			{ID: 0, Q1: 0, Q2: 1, Freq: 7.0, Length: 3, Blocks: []int{0}},
		},
		Blocks: []netlist.WireBlock{
			{ID: 0, Edge: 0, Index: 0, Pos: geom.Pt{X: 5, Y: 5}},
		},
	}
	if err := n.Validate(); err != nil {
		t.Fatalf("test fixture invalid: %v", err)
	}
	return &core.Layout{
		Netlist:       n,
		QubitTime:     time.Duration(seed+1) * time.Millisecond,
		ResonatorTime: 2 * time.Millisecond,
		DPTime:        3 * time.Millisecond,
		QubitResult:   qlegal.Result{Displacement: float64(seed), FinalSpacing: 4, Relaxations: 1},
		Report:        metrics.Analyze(n, metrics.DefaultParams()),
	}
}

// layoutBytes is the byte-identity fingerprint used across the
// rehydration tests: the canonical layoutio serialization.
func layoutBytes(t *testing.T, lay *core.Layout) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := layoutio.WriteJSON(&buf, lay.Netlist); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestLRUBasics(t *testing.T) {
	c := NewLRU(2, nil)
	c.Add("a", 1)
	c.Add("b", 2)
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a missing")
	}
	c.Add("c", 3) // evicts b (a was just used)
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("a should have survived")
	}
	if c.Len() != 2 {
		t.Errorf("len = %d, want 2", c.Len())
	}
}

func TestLRUEvictCallback(t *testing.T) {
	var evicted []string
	c := NewLRU(1, func(key string, _ any) { evicted = append(evicted, key) })
	c.Add("a", 1)
	c.Add("a", 2) // overwrite: no eviction
	c.Add("b", 3) // evicts a
	if len(evicted) != 1 || evicted[0] != "a" {
		t.Errorf("evicted = %v, want [a]", evicted)
	}
}

func TestMemoryStore(t *testing.T) {
	m := NewMemory(4)
	lay := testLayout(t, 1)
	if _, ok := m.Get("k"); ok {
		t.Fatal("hit on empty store")
	}
	m.Put("k", lay)
	got, ok := m.Get("k")
	if !ok || got != lay {
		t.Fatal("memory store did not return the stored layout instance")
	}
	s := m.Stats()
	if s.MemHits != 1 || s.Misses != 1 || s.Puts != 1 || s.MemEntries != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss / 1 put / 1 entry", s)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDiskRoundTrip(t *testing.T) {
	d, err := OpenDisk(t.TempDir(), DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	lay := testLayout(t, 2)
	d.Put("layout:abc", lay)
	got, ok := d.Get("layout:abc")
	if !ok {
		t.Fatal("disk miss after put")
	}
	if !bytes.Equal(layoutBytes(t, got), layoutBytes(t, lay)) {
		t.Error("rehydrated layout not byte-identical")
	}
	// Layout metadata survives the round trip too.
	if got.QubitTime != lay.QubitTime || got.DPTime != lay.DPTime || got.QubitResult != lay.QubitResult {
		t.Errorf("metadata lost: got %v/%v/%+v", got.QubitTime, got.DPTime, got.QubitResult)
	}
	if !reflect.DeepEqual(got.Report, lay.Report) {
		t.Errorf("report lost: got %+v, want %+v", got.Report, lay.Report)
	}
	// Content-addressed: a second put of the same key writes nothing new.
	d.Put("layout:abc", lay)
	if s := d.Stats(); s.Spills != 1 || s.DiskFiles != 1 {
		t.Errorf("stats after duplicate put: %+v, want 1 spill / 1 file", s)
	}
}

// TestTieredEvictWriteThrough is the eviction-semantics regression test:
// a memory-LRU eviction must write the layout through to disk, so an
// evict-then-Get round-trips from the disk tier instead of recomputing.
func TestTieredEvictWriteThrough(t *testing.T) {
	disk, err := OpenDisk(t.TempDir(), DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	st := NewTiered(NewMemory(1), disk)

	a, b := testLayout(t, 1), testLayout(t, 2)
	st.Put("layout:a", a)
	st.Put("layout:b", b) // capacity 1: evicts a, which must spill

	got, ok := st.Get("layout:a")
	if !ok {
		t.Fatal("evicted entry lost — eviction dropped the layout instead of spilling")
	}
	if !bytes.Equal(layoutBytes(t, got), layoutBytes(t, a)) {
		t.Error("evict-then-Get returned different layout bytes")
	}
	s := st.Stats()
	if s.DiskHits != 1 || s.Promotions != 1 {
		t.Errorf("stats = %+v, want the evicted entry served from disk and promoted", s)
	}
	if s.Spills < 2 { // both a and b were written through on Put
		t.Errorf("spills = %d, want >= 2", s.Spills)
	}
	// The promotion of a evicted b from the capacity-1 memory tier;
	// b must still be retrievable (from disk).
	if _, ok := st.Get("layout:b"); !ok {
		t.Error("entry evicted by a promotion was lost")
	}
	// Both now served memory- or disk-side; nothing was a miss.
	if s2 := st.Stats(); s2.Misses != 0 {
		t.Errorf("misses = %d, want 0", s2.Misses)
	}
}

// TestRestartRehydration warms a tiered store, closes it, reopens a new
// store over the same directory, and asserts byte-identical layouts
// come back from the disk tier.
func TestRestartRehydration(t *testing.T) {
	dir := t.TempDir()
	keys := []string{"layout:r0", "layout:r1", "layout:r2"}
	want := map[string][]byte{}

	disk1, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	st1 := NewTiered(NewMemory(8), disk1)
	for i, k := range keys {
		lay := testLayout(t, i)
		st1.Put(k, lay)
		want[k] = layoutBytes(t, lay)
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	disk2, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	st2 := NewTiered(NewMemory(8), disk2)
	for i, k := range keys {
		got, ok := st2.Get(k)
		if !ok {
			t.Fatalf("key %s lost across restart", k)
		}
		if !bytes.Equal(layoutBytes(t, got), want[k]) {
			t.Errorf("key %s not byte-identical after restart", k)
		}
		if s := st2.Stats(); s.DiskHits != int64(i+1) {
			t.Errorf("after %d gets: disk_hits = %d, want %d", i+1, s.DiskHits, i+1)
		}
	}
	// Rehydrated entries were promoted: a second read is a memory hit.
	if _, ok := st2.Get(keys[0]); !ok {
		t.Fatal("promoted entry missing")
	}
	s := st2.Stats()
	if s.MemHits != 1 || s.DiskHits != int64(len(keys)) || s.Misses != 0 {
		t.Errorf("stats = %+v, want 1 mem hit, %d disk hits, 0 misses", s, len(keys))
	}
}

// TestDiskCorruptTolerance: truncated or stale-schema entries are
// counted, deleted, and served as misses — never decoded.
func TestDiskCorruptTolerance(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d.Put("layout:x", testLayout(t, 3))
	name := fileName("layout:x")

	// Truncate the entry mid-file.
	path := filepath.Join(dir, name)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Get("layout:x"); ok {
		t.Fatal("corrupt entry served")
	}
	if s := d.Stats(); s.CorruptSkipped != 1 {
		t.Errorf("corrupt_skipped = %d, want 1", s.CorruptSkipped)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("corrupt entry not deleted")
	}

	// A stale envelope version is rejected the same way.
	d.Put("layout:x", testLayout(t, 3))
	data, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	stale := strings.Replace(string(data), fmt.Sprintf(`{"version":%d`, envelopeVersion), `{"version":99`, 1)
	if stale == string(data) {
		t.Fatal("fixture: envelope version not found to tamper")
	}
	if err := os.WriteFile(path, []byte(stale), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Get("layout:x"); ok {
		t.Fatal("stale-schema entry served")
	}
	if s := d.Stats(); s.CorruptSkipped != 2 {
		t.Errorf("corrupt_skipped = %d, want 2", s.CorruptSkipped)
	}
}

// TestDiskGC: the size bound deletes oldest-written entries first and
// is enforced across restarts (the opening scan re-runs GC).
func TestDiskGC(t *testing.T) {
	dir := t.TempDir()
	one := testLayout(t, 0)
	entrySize := func() int64 {
		d, err := OpenDisk(t.TempDir(), DiskOptions{})
		if err != nil {
			t.Fatal(err)
		}
		d.Put("layout:probe", one)
		return d.Stats().DiskBytes
	}()

	d, err := OpenDisk(dir, DiskOptions{MaxBytes: 3 * entrySize})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		d.Put(fmt.Sprintf("layout:gc%d", i), testLayout(t, i))
	}
	s := d.Stats()
	if s.DiskBytes > 3*entrySize {
		t.Errorf("disk_bytes = %d exceeds bound %d", s.DiskBytes, 3*entrySize)
	}
	if s.GCEvictions == 0 {
		t.Error("no GC evictions despite overflow")
	}
	// The most recent entry survives; the oldest is gone.
	if _, ok := d.Get("layout:gc5"); !ok {
		t.Error("newest entry GC'd")
	}
	if _, ok := d.Get("layout:gc0"); ok {
		t.Error("oldest entry survived GC")
	}
}

// TestOpenDiskCleansTempFiles: a crashed writer's temp file is removed
// on the next open and never counted as an entry.
func TestOpenDiskCleansTempFiles(t *testing.T) {
	dir := t.TempDir()
	tmp := filepath.Join(dir, tmpPrefix+"crashed")
	if err := os.WriteFile(tmp, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Error("leftover temp file not cleaned")
	}
	if s := d.Stats(); s.DiskFiles != 0 {
		t.Errorf("disk_files = %d, want 0", s.DiskFiles)
	}
}

// TestDiskSharedDirRaces: two Disk instances over one directory model
// cluster replicas sharing a cache dir. Deletions by one process under
// the other's feet must degrade to counted races and corrected
// bookkeeping, never errors or phantom entries.
func TestDiskSharedDirRaces(t *testing.T) {
	dir := t.TempDir()
	a, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := OpenDisk(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// a writes; b (which scanned an empty dir) still reads it through
	// the shared directory.
	a.Put("layout:shared", testLayout(t, 1))
	if _, ok := b.Get("layout:shared"); !ok {
		t.Fatal("second process cannot read first process's spill")
	}

	// b deletes the file out from under a (what a concurrent GC does).
	// a's next read is a miss that repairs its bookkeeping and counts
	// the race instead of erroring.
	os.Remove(filepath.Join(dir, fileName("layout:shared")))
	if _, ok := a.Get("layout:shared"); ok {
		t.Fatal("vanished entry still served")
	}
	s := a.Stats()
	if s.GCRaces != 1 {
		t.Errorf("gc_races = %d, want 1", s.GCRaces)
	}
	if s.DiskFiles != 0 || s.DiskBytes != 0 {
		t.Errorf("bookkeeping not repaired: files=%d bytes=%d", s.DiskFiles, s.DiskBytes)
	}

	// GC over already-deleted entries: fill a bounded store, delete the
	// victims externally, then trigger GC with one more put. The GC must
	// finish (size bookkeeping shrinks) and count races, not fail.
	c, err := OpenDisk(t.TempDir(), DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c.Put("layout:probe", testLayout(t, 0))
	entrySize := c.Stats().DiskBytes

	dir2 := t.TempDir()
	d, err := OpenDisk(dir2, DiskOptions{MaxBytes: 2 * entrySize})
	if err != nil {
		t.Fatal(err)
	}
	d.Put("layout:r0", testLayout(t, 0))
	d.Put("layout:r1", testLayout(t, 1))
	os.Remove(filepath.Join(dir2, fileName("layout:r0"))) // external GC wins the race
	d.Put("layout:r2", testLayout(t, 2))                  // overflows, GC must evict r0 (already gone)
	s = d.Stats()
	if s.GCEvictions == 0 {
		t.Error("bounded store never GC'd")
	}
	if s.GCRaces == 0 {
		t.Error("lost delete race not counted")
	}
	if s.DiskBytes > 2*entrySize {
		t.Errorf("disk_bytes = %d exceeds bound %d after racy GC", s.DiskBytes, 2*entrySize)
	}
}
