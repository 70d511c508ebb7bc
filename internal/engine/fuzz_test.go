package engine

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/wal"
)

// FuzzDecodeRecord: an arbitrary record type and payload decode to an
// error or to a mutation whose encoding is exactly the payload — a
// record has one reading, and one that is not a valid encoding is
// refused rather than misread. Seeds: testdata/fuzz/FuzzDecodeRecord,
// one record of every type from a real log and its Save.
func FuzzDecodeRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, typ byte, payload []byte) {
		op, err := decodeRecord(wal.Record{Type: wal.Type(typ), Payload: payload})
		if err != nil {
			return
		}
		if got := op.appendTo(nil); !bytes.Equal(got, payload) {
			t.Fatalf("type %d: %T decoded from %x re-encodes as %x", typ, op, payload, got)
		}
	})
}

// FuzzLoad: arbitrary bytes handed to Load yield an error or a
// database, never a panic — the decoder and the apply methods behind
// it ("apply never panics", see mutation) hold on any input. Seeds:
// testdata/fuzz/FuzzLoad, a real small Save and a cut of it.
func FuzzLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if db, err := Load(bytes.NewReader(data)); err == nil {
			db.Close()
		}
	})
}

// TestFuzzSeedsCurrent keeps the committed seed corpora in the current
// format: the whole-Save seed must load. UPDATE_FUZZ_SEEDS=1 rewrites
// both corpora from the torture workload's log and its Save.
func TestFuzzSeedsCurrent(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz")
	if os.Getenv("UPDATE_FUZZ_SEEDS") != "" {
		writeFuzzSeeds(t, dir)
	}
	db, err := Load(bytes.NewReader(readSeedBytes(t, filepath.Join(dir, "FuzzLoad", "save"))))
	if err != nil {
		t.Fatalf("the FuzzLoad seed no longer loads (regenerate with UPDATE_FUZZ_SEEDS=1): %v", err)
	}
	db.Close()
}

// TestLoadRefusesVersion2Snapshot: testdata/snapshot-v2.save is a whole
// Save of the version-2 format, whose instance records carry one more
// byte. It is refused, not migrated and not loaded as a prefix.
func TestLoadRefusesVersion2Snapshot(t *testing.T) {
	if db, err := Load(bytes.NewReader(readSeedBytes(t, filepath.Join("testdata", "snapshot-v2.save")))); err == nil {
		db.Close()
		t.Fatal("a version-2 snapshot loaded")
	}
}

// readSeedBytes reads a one-[]byte file in the fuzz corpus encoding.
func readSeedBytes(t *testing.T, path string) []byte {
	t.Helper()
	seed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(string(seed), "go test fuzz v1\n[]byte("), ")\n"))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return []byte(data)
}

func writeFuzzSeeds(t *testing.T, dir string) {
	walDir := t.TempDir()
	db, err := Open(Config{WALDir: walDir, PageCap: 16})
	if err != nil {
		t.Fatal(err)
	}
	tortureWorkload(t, db)
	var save bytes.Buffer
	if err := db.Save(&save); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := wal.Recover(filepath.Join(walDir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := wal.Scan(bytes.NewReader(save.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	write := func(target, name, body string) {
		if err := os.MkdirAll(filepath.Join(dir, target), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, target, name), []byte("go test fuzz v1\n"+body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[wal.Type]bool{}
	for _, rec := range append(snap.Records, res.Records...) {
		if _, ok := newMutation[rec.Type]; ok && !seen[rec.Type] {
			seen[rec.Type] = true
			write("FuzzDecodeRecord", fmt.Sprintf("type-%02d", rec.Type), fmt.Sprintf("byte(%q)\n[]byte(%q)\n", byte(rec.Type), rec.Payload))
		}
	}
	write("FuzzLoad", "save", fmt.Sprintf("[]byte(%q)\n", save.Bytes()))
	write("FuzzLoad", "save-cut", fmt.Sprintf("[]byte(%q)\n", save.Bytes()[:save.Len()/2]))
}
