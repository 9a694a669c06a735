package obj

// Binary serialisation of linked program images, so the layout pass's
// output is a real artifact: waylink can write the placed binary to
// disk and other tools can load and run or inspect it without
// rebuilding. The format is a simple sectioned container:
//
//	magic "WPL1" | header (entry, base, data base)
//	code section:   count, then count encoded instruction words
//	symbol section: count, then (name, addr) pairs, sorted by name
//	block section:  count, then placed-block records in address order
//	data section:   length, then raw bytes
//
// All integers are little-endian uint32 except section counts
// (uint32). Strings are uint16 length + bytes.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"wayplace/internal/isa"
)

var imageMagic = [4]byte{'W', 'P', 'L', '1'}

type imageWriter struct {
	w   *bufio.Writer
	err error
}

func (iw *imageWriter) u32(v uint32) {
	if iw.err != nil {
		return
	}
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	_, iw.err = iw.w.Write(b[:])
}

func (iw *imageWriter) str(s string) {
	if iw.err != nil {
		return
	}
	if len(s) > 0xffff {
		iw.err = fmt.Errorf("obj: string too long (%d bytes)", len(s))
		return
	}
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], uint16(len(s)))
	if _, iw.err = iw.w.Write(b[:]); iw.err != nil {
		return
	}
	_, iw.err = iw.w.WriteString(s)
}

// WriteImage serialises the program.
func (p *Program) WriteImage(w io.Writer) error {
	iw := &imageWriter{w: bufio.NewWriter(w)}
	if _, err := iw.w.Write(imageMagic[:]); err != nil {
		return err
	}
	iw.u32(p.Entry)
	iw.u32(p.Base)
	iw.u32(p.DataBase)

	iw.u32(uint32(len(p.Words)))
	for _, word := range p.Words {
		iw.u32(word)
	}

	syms := make([]string, 0, len(p.Syms))
	for s := range p.Syms {
		syms = append(syms, s)
	}
	sort.Strings(syms)
	iw.u32(uint32(len(syms)))
	for _, s := range syms {
		iw.str(s)
		iw.u32(p.Syms[s])
	}

	iw.u32(uint32(len(p.Placed)))
	for _, pl := range p.Placed {
		iw.str(pl.Block.Sym)
		iw.str(pl.Block.Func)
		iw.u32(pl.Addr)
		iw.u32(uint32(pl.Block.NumInstrs()))
		iw.str(pl.Block.BranchSym)
		iw.str(pl.Block.FallSym)
		flag := uint32(0)
		if pl.Block.IsCall {
			flag = 1
		}
		iw.u32(flag)
	}

	iw.u32(uint32(len(p.Data)))
	if iw.err == nil {
		_, iw.err = iw.w.Write(p.Data)
	}
	if iw.err != nil {
		return iw.err
	}
	return iw.w.Flush()
}

type imageReader struct {
	r   *bufio.Reader
	err error
}

func (ir *imageReader) u32() uint32 {
	if ir.err != nil {
		return 0
	}
	var b [4]byte
	if _, ir.err = io.ReadFull(ir.r, b[:]); ir.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b[:])
}

func (ir *imageReader) str() string {
	if ir.err != nil {
		return ""
	}
	var b [2]byte
	if _, ir.err = io.ReadFull(ir.r, b[:]); ir.err != nil {
		return ""
	}
	n := binary.LittleEndian.Uint16(b[:])
	buf := make([]byte, n)
	if _, ir.err = io.ReadFull(ir.r, buf); ir.err != nil {
		return ""
	}
	return string(buf)
}

// ReadImage loads a program serialised by WriteImage. The decoded
// instruction stream is reconstructed from the words, so a loaded
// image runs exactly like the original.
func ReadImage(r io.Reader) (*Program, error) {
	ir := &imageReader{r: bufio.NewReader(r)}
	var magic [4]byte
	if _, err := io.ReadFull(ir.r, magic[:]); err != nil {
		return nil, fmt.Errorf("obj: reading magic: %w", err)
	}
	if magic != imageMagic {
		return nil, fmt.Errorf("obj: bad magic %q", magic[:])
	}
	p := &Program{Syms: make(map[string]uint32)}
	p.Entry = ir.u32()
	p.Base = ir.u32()
	p.DataBase = ir.u32()

	nWords := ir.u32()
	if ir.err != nil {
		return nil, ir.err
	}
	if nWords > 1<<26 {
		return nil, fmt.Errorf("obj: implausible code size %d words", nWords)
	}
	// The count is untrusted: the slices grow as words arrive, so a
	// short image cannot make the reader allocate what it claims.
	for i := uint32(0); i < nWords; i++ {
		word := ir.u32()
		if ir.err != nil {
			return nil, ir.err
		}
		in, err := isa.Decode(word)
		if err != nil {
			return nil, fmt.Errorf("obj: word %d: %w", i, err)
		}
		p.Words = append(p.Words, word)
		p.Code = append(p.Code, in)
	}

	nSyms := ir.u32()
	for i := uint32(0); i < nSyms && ir.err == nil; i++ {
		name := ir.str()
		p.Syms[name] = ir.u32()
	}

	nBlocks := ir.u32()
	codeIdx := 0
	for i := uint32(0); i < nBlocks && ir.err == nil; i++ {
		sym := ir.str()
		fn := ir.str()
		addr := ir.u32()
		n := ir.u32()
		branchSym := ir.str()
		fallSym := ir.str()
		isCall := ir.u32() == 1
		if ir.err != nil {
			break
		}
		if uint64(codeIdx)+uint64(n) > uint64(len(p.Code)) {
			return nil, fmt.Errorf("obj: block %s overruns the code section", sym)
		}
		if addr != p.Base+uint32(codeIdx)*isa.InstrBytes {
			return nil, fmt.Errorf("obj: block %s at %#x, want %#x: blocks must tile the code section from its base",
				sym, addr, p.Base+uint32(codeIdx)*isa.InstrBytes)
		}
		blk := &Block{
			Sym: sym, Func: fn, Index: int(i),
			Instrs:    p.Code[codeIdx : codeIdx+int(n)],
			BranchSym: branchSym, FallSym: fallSym, IsCall: isCall,
		}
		p.Placed = append(p.Placed, Placed{Block: blk, Addr: addr})
		for k := 0; k < int(n); k++ {
			p.blockOf = append(p.blockOf, int(i))
		}
		codeIdx += int(n)
	}
	if ir.err == nil && codeIdx != len(p.Code) {
		return nil, fmt.Errorf("obj: blocks cover %d of %d instructions", codeIdx, len(p.Code))
	}

	nData := ir.u32()
	if ir.err != nil {
		return nil, ir.err
	}
	if nData > 1<<28 {
		return nil, fmt.Errorf("obj: implausible data size %d", nData)
	}
	data, err := io.ReadAll(io.LimitReader(ir.r, int64(nData)))
	if err == nil && len(data) < int(nData) {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return nil, fmt.Errorf("obj: reading data: %w", err)
	}
	p.Data = data
	return p, nil
}
