package checkpoint

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"vmtherm/internal/anchorcache"
)

// Regenerate the committed seed corpus with:
//
//	go test ./internal/checkpoint -run TestWriteFuzzCorpus -write-corpus
var writeCorpus = flag.Bool("write-corpus", false, "regenerate testdata/fuzz seed corpus")

// corpusSeeds are the byte inputs seeded both via f.Add and as committed
// corpus files, so `go test` exercises them even without -fuzz.
func corpusSeeds(t testing.TB) [][]byte {
	encode := func(seq uint64, st *State) []byte {
		var buf bytes.Buffer
		if _, err := Encode(&buf, seq, st); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	valid := encode(1, &State{Round: 3, SourceName: "trace", SourceNowS: 45, Order: []string{"h0"}})
	empty := encode(2, &State{})
	// What a simulated fleet writes: the anchor-cache section and nothing else.
	cacheOnly := encode(3, &State{SourceName: "sim", AnchorCache: &CacheState{
		Quant: anchorcache.DefaultQuantizer(),
		Cur:   []anchorcache.Entry{{Key: 7, Value: 55.5}},
		Prev:  []anchorcache.Entry{{Key: 3, Value: 48}},
	}})
	fineQuant := encode(4, &State{Round: 3, SourceName: "trace", AnchorCache: &CacheState{
		Quant: anchorcache.Quantizer{UtilQuant: 0.005, MemQuant: 0.01, AmbientQuantC: 0.5},
		Cur:   []anchorcache.Entry{{Key: 9, Value: 61.25}},
	}})
	forged := bytes.Clone(valid)
	for i := 20; i < 28; i++ { // payload-length field
		forged[i] = 0xff
	}
	return [][]byte{
		valid,
		empty,
		{},
		[]byte("vmtckpt1"),                     // magic only
		append([]byte("vmtckpt1"), 1, 0, 0, 0), // header, no body
		valid[:len(valid)-4],                   // CRC chopped
		valid[:len(valid)/2],                   // torn mid-frame
		append(bytes.Clone(valid), 0xff, 0xff), // trailing garbage
		forged,
		cacheOnly,
		fineQuant,
	}
}

// TestWriteFuzzCorpus regenerates the committed seed corpus files under
// testdata/fuzz/FuzzDecode when run with -write-corpus (no-op otherwise).
func TestWriteFuzzCorpus(t *testing.T) {
	if !*writeCorpus {
		t.Skip("run with -write-corpus to regenerate the seed corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzDecode")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, seed := range corpusSeeds(t) {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed)
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("seed%d", i)), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzDecode: the checkpoint decoder must never panic and must reject —
// with an error — every malformed frame: bad magic, wrong version, forged
// length, truncation, flipped CRC, garbage gob payload.
func FuzzDecode(f *testing.F) {
	for _, seed := range corpusSeeds(f) {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		st, _, err := Decode(bytes.NewReader(data))
		if err != nil && st != nil {
			t.Fatal("Decode returned both a state and an error")
		}
		if err == nil && st == nil {
			t.Fatal("Decode returned neither a state nor an error")
		}
	})
}
