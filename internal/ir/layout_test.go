package ir

import (
	"testing"
	"unsafe"
)

// TestInstrLayout pins the instruction's size budget. The front end
// allocates one Instr per lowered operation, and both interpreters walk
// them at run time, so each byte shows up in every cold start: at 512
// bytes (five 64-byte operands inline, plus every opcode's call, switch
// and alloca fields) a cold-run program allocated 0.66 MB; at this budget
// (216-byte Instr, 48-byte Operand, one-opcode fields in Ext) it allocates
// 0.47 MB on the same 2-vCPU machine.
func TestInstrLayout(t *testing.T) {
	if n := unsafe.Sizeof(Instr{}); n > 256 {
		t.Errorf("unsafe.Sizeof(Instr{}) = %d, budget 256", n)
	}
	if n := unsafe.Sizeof(Operand{}); n > 48 {
		t.Errorf("unsafe.Sizeof(Operand{}) = %d, budget 48", n)
	}
}
