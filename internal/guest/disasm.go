package guest

import "fmt"

func sizePrefix(op Op) string {
	switch op.MemSize() {
	case 1:
		return "byte "
	case 2:
		return "word "
	case 4:
		return "dword "
	case 8:
		return "qword "
	}
	return ""
}

// Disasm renders inst, located at pc with encoded length n, in Intel-like
// syntax. Branch targets are absolute.
func Disasm(pc uint32, inst Inst, n int) string {
	target := pc + uint32(n) + uint32(inst.Rel)
	switch opTable[inst.Op].lay {
	case layNone:
		return inst.Op.String()
	case layR:
		return fmt.Sprintf("%s\t%s", inst.Op, inst.R1)
	case layRR:
		return fmt.Sprintf("%s\t%s, %s", inst.Op, inst.R1, inst.R2)
	case layRI:
		return fmt.Sprintf("%s\t%s, %d", inst.Op, inst.R1, inst.Imm)
	case layRM:
		return fmt.Sprintf("%s\t%s, %s%s", inst.Op, inst.R1, sizePrefix(inst.Op), inst.Mem)
	case layMR:
		return fmt.Sprintf("%s\t%s%s, %s", inst.Op, sizePrefix(inst.Op), inst.Mem, inst.R1)
	case layFM:
		return fmt.Sprintf("%s\t%s, %s%s", inst.Op, inst.FR1, sizePrefix(inst.Op), inst.Mem)
	case layMF:
		return fmt.Sprintf("%s\t%s%s, %s", inst.Op, sizePrefix(inst.Op), inst.Mem, inst.FR1)
	case layFF:
		return fmt.Sprintf("%s\t%s, %s", inst.Op, inst.FR1, inst.FR2)
	case layRel:
		return fmt.Sprintf("%s\t%#x", inst.Op, target)
	case layCondRel:
		return fmt.Sprintf("j%s\t%#x", inst.Cond, target)
	}
	return fmt.Sprintf("?%v", inst.Op)
}
