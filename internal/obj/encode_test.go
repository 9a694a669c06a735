package obj

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
)

func roundTrip(t *testing.T, p *Program) *Program {
	t.Helper()
	var buf bytes.Buffer
	if err := p.WriteImage(&buf); err != nil {
		t.Fatalf("WriteImage: %v", err)
	}
	q, err := ReadImage(&buf)
	if err != nil {
		t.Fatalf("ReadImage: %v", err)
	}
	return q
}

func TestImageRoundTrip(t *testing.T) {
	u := unit()
	u.DataBase = 0x40_0000
	u.Data = []byte{1, 2, 3, 4, 5, 6, 7}
	p, err := Link(u, OriginalOrder(u), 0x1_0000)
	if err != nil {
		t.Fatal(err)
	}
	q := roundTrip(t, p)

	if q.Entry != p.Entry || q.Base != p.Base || q.DataBase != p.DataBase {
		t.Errorf("header mismatch: %+v vs %+v", q, p)
	}
	if len(q.Words) != len(p.Words) {
		t.Fatalf("word counts differ")
	}
	for i := range p.Words {
		if q.Words[i] != p.Words[i] {
			t.Errorf("word %d: %#x vs %#x", i, q.Words[i], p.Words[i])
		}
		if q.Code[i] != p.Code[i] {
			t.Errorf("code %d: %v vs %v", i, q.Code[i], p.Code[i])
		}
	}
	if len(q.Syms) != len(p.Syms) {
		t.Fatalf("symbol counts differ")
	}
	for s, a := range p.Syms {
		if q.Syms[s] != a {
			t.Errorf("symbol %s: %#x vs %#x", s, q.Syms[s], a)
		}
	}
	if len(q.Placed) != len(p.Placed) {
		t.Fatalf("block counts differ")
	}
	for i := range p.Placed {
		a, b := p.Placed[i], q.Placed[i]
		if a.Addr != b.Addr || a.Block.Sym != b.Block.Sym ||
			a.Block.Func != b.Block.Func ||
			a.Block.NumInstrs() != b.Block.NumInstrs() ||
			a.Block.BranchSym != b.Block.BranchSym ||
			a.Block.FallSym != b.Block.FallSym ||
			a.Block.IsCall != b.Block.IsCall {
			t.Errorf("block %d differs: %+v vs %+v", i, b, a)
		}
	}
	if !bytes.Equal(q.Data, p.Data) {
		t.Error("data sections differ")
	}
	// Index helpers must work on the loaded image.
	if blk := q.BlockAt(0); blk == nil || blk.Block.Sym != "main" {
		t.Errorf("BlockAt(0) on loaded image = %+v", blk)
	}
	if i, ok := q.IndexOf(q.Entry); !ok || i != 0 {
		t.Errorf("IndexOf(entry) = %d,%v", i, ok)
	}
}

func TestReadImageRejectsGarbage(t *testing.T) {
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"bad magic", []byte("NOPE0000000000000000")},
		{"truncated header", []byte("WPL1\x01\x00")},
	}
	for _, c := range cases {
		if _, err := ReadImage(bytes.NewReader(c.data)); err == nil {
			t.Errorf("%s: ReadImage succeeded", c.name)
		}
	}
}

func TestReadImageRejectsImplausibleSizes(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString("WPL1")
	for i := 0; i < 3; i++ {
		buf.Write([]byte{0, 0, 0, 0})
	}
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff}) // 4G instruction words
	if _, err := ReadImage(&buf); err == nil ||
		!strings.Contains(err.Error(), "implausible") {
		t.Errorf("huge code size accepted: %v", err)
	}
}

// A section count is a claim, not an allocation: an image that stops
// right after claiming the most code words, or the most data bytes,
// the reader accepts fails having allocated next to nothing.
func TestReadImageShortImageAllocatesLittle(t *testing.T) {
	var code bytes.Buffer
	code.WriteString("WPL1")
	for i := 0; i < 3; i++ {
		code.Write([]byte{0, 0, 0, 0})
	}
	code.Write([]byte{0, 0, 0, 4}) // 1<<26 instruction words, none present
	u := unit()
	p, err := Link(u, OriginalOrder(u), 0)
	if err != nil {
		t.Fatal(err)
	}
	var data bytes.Buffer
	if err := p.WriteImage(&data); err != nil {
		t.Fatal(err)
	}
	image := data.Bytes()
	copy(image[len(image)-4:], []byte{0, 0, 0, 0x10}) // 1<<28 data bytes, none present
	for name, image := range map[string][]byte{"code": code.Bytes(), "data": image} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadImage(bytes.NewReader(image))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: a truncated section was accepted", name)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
			t.Errorf("%s: reading a %d-byte image allocated %d bytes", name, len(image), n)
		}
	}
}

// Blocks must tile the code section from its base, in order: an image
// whose block sits anywhere else is refused, whatever its size.
func TestReadImageRejectsMisplacedBlocks(t *testing.T) {
	u := unit()
	for name, move := range map[string]func(p *Program){
		"gap":      func(p *Program) { p.Placed[1].Addr += 4 },
		"overlap":  func(p *Program) { p.Placed[2].Addr -= 4 },
		"off base": func(p *Program) { p.Placed[0].Addr = p.Base + 4 },
		"swapped":  func(p *Program) { p.Placed[0].Addr, p.Placed[2].Addr = p.Placed[2].Addr, p.Placed[0].Addr },
		"wrapped":  func(p *Program) { p.Placed[1].Addr -= 1 << 31 },
	} {
		p, err := Link(u, OriginalOrder(u), 0x1_0000)
		if err != nil {
			t.Fatal(err)
		}
		move(p)
		var buf bytes.Buffer
		if err := p.WriteImage(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadImage(&buf); err == nil || !strings.Contains(err.Error(), "tile") {
			t.Errorf("%s: err %v, want a misplaced-block refusal", name, err)
		}
	}
}

func TestWriteImageDeterministic(t *testing.T) {
	u := unit()
	p, err := Link(u, OriginalOrder(u), 0)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := p.WriteImage(&a); err != nil {
		t.Fatal(err)
	}
	if err := p.WriteImage(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("WriteImage not deterministic")
	}
}

// FuzzReadImage feeds ReadImage arbitrary bytes, seeded with
// WriteImage output. It must never panic or allocate far past its
// input, and any image it accepts must survive a round trip: writing
// it and reading that back gives the same bytes again. A seed, being
// WriteImage output, must read back to exactly itself.
func FuzzReadImage(f *testing.F) {
	seeds := [][]byte{}
	for _, base := range []uint32{0, 0x1_0000} {
		u := unit()
		u.DataBase = 0x40_0000
		u.Data = []byte{1, 2, 3, 4, 5, 6, 7}
		p, err := Link(u, OriginalOrder(u), base)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := p.WriteImage(&buf); err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, buf.Bytes())
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ReadImage(bytes.NewReader(data))
		if err != nil {
			return
		}
		var once bytes.Buffer
		if err := p.WriteImage(&once); err != nil {
			t.Fatalf("writing an accepted image: %v", err)
		}
		q, err := ReadImage(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("reading a written image: %v", err)
		}
		var twice bytes.Buffer
		if err := q.WriteImage(&twice); err != nil {
			t.Fatalf("writing a re-read image: %v", err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatal("an image changed over a write-read round trip")
		}
		for _, seed := range seeds {
			if bytes.Equal(data, seed) && !bytes.Equal(once.Bytes(), seed) {
				t.Fatal("a WriteImage image does not read back to itself")
			}
		}
		for i := range q.Code {
			if q.BlockAt(i) == nil {
				t.Fatalf("instruction %d of an accepted image lies in no block", i)
			}
		}
	})
}
