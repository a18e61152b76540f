package cpu

import (
	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/taint"
)

// LoadImage writes an assembled image into memory (untainted — program
// text and initialized data are trusted) and initializes the CPU's entry
// state: PC at the image entry point, $sp at the stack top, $gp at the
// conventional small-data anchor, and $fp mirroring $sp.
func (c *CPU) LoadImage(m *mem.Memory, im *asm.Image) {
	for i, seg := range im.Segments {
		m.WriteBytes(seg.Addr, seg.Data, false)
		if i == 0 { // text segment: a fresh block table nobody shares yet
			n := (len(seg.Data) + 3) / 4
			c.textBase = seg.Addr
			c.textEnd = seg.Addr + uint32(n)*4
			c.text = newBlockTable(n)
			c.seen = make([]uint64, (n+63)/64)
			c.sblocks, c.sbHeat, c.sbBad, c.sbShared = nil, nil, nil, false
		}
	}
	c.pc = im.Entry
	c.SetReg(isa.RegSP, asm.StackTop, taint.None)
	c.SetReg(isa.RegFP, asm.StackTop, taint.None)
	c.SetReg(isa.RegGP, asm.DataBase+0x8000, taint.None)
	if c.image == nil {
		c.image = im
	}
}
