package mdabt

import (
	"encoding/json"
	"strings"
	"testing"

	"mdabt/internal/mem"
)

func TestQuickstartFlow(t *testing.T) {
	// The doc-comment example, verified.
	img, err := Assemble(`
	        mov     ebx, 0x10000000
	        mov     eax, dword [ebx+2]   ; misaligned!
	        halt
	`, GuestCodeBase)
	if err != nil {
		t.Fatal(err)
	}
	sys := NewSystem(MechanismOptions(ExceptionHandling))
	sys.LoadImage(GuestCodeBase, img)
	sys.Mem.Write64(GuestDataBase, 0xAABBCCDDEEFF0011)
	if err := sys.Run(GuestCodeBase, 1<<24); err != nil {
		t.Fatal(err)
	}
	if traps := sys.Machine.Counters().MisalignTraps; traps != 1 {
		t.Errorf("traps = %d, want 1", traps)
	}
	// Memory bytes at DataBase: 11 00 FF EE DD CC BB AA; the 4-byte load at
	// +2 reads FF EE DD CC little-endian.
	if got := sys.GuestCPU().R[0]; got != 0xCCDDEEFF {
		t.Errorf("eax = %#x, want 0xCCDDEEFF", got)
	}
}

func TestDisassembleGuestRoundTrip(t *testing.T) {
	img, err := Assemble("mov eax, 42\nhalt\n", GuestCodeBase)
	if err != nil {
		t.Fatal(err)
	}
	text, err := DisassembleGuest(img, GuestCodeBase)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "mov\teax, 42") || !strings.Contains(text, "halt") {
		t.Errorf("disassembly:\n%s", text)
	}
}

func TestMechanismsProduceSameArchitecturalState(t *testing.T) {
	img, err := Assemble(`
	        mov     ebx, 0x10000000
	        mov     ecx, 0
	        mov     eax, 0
	loop:   mov     edx, dword [ebx+3]
	        add     eax, edx
	        mov     dword [ebx+9], eax
	        add     ecx, 1
	        cmp     ecx, 300
	        jl      loop
	        halt
	`, GuestCodeBase)
	if err != nil {
		t.Fatal(err)
	}
	var want uint32
	for i, mech := range []Mechanism{Direct, DynamicProfile, ExceptionHandling, DPEH} {
		sys := NewSystem(MechanismOptions(mech))
		sys.LoadImage(GuestCodeBase, img)
		sys.Mem.Write64(GuestDataBase, 0x1234567890ABCDEF)
		if err := sys.Run(GuestCodeBase, 1<<28); err != nil {
			t.Fatalf("%v: %v", mech, err)
		}
		got := sys.GuestCPU().R[0]
		if i == 0 {
			want = got
		} else if got != want {
			t.Errorf("%v: eax = %#x, want %#x", mech, got, want)
		}
	}
}

func TestBenchmarkAccessors(t *testing.T) {
	if len(Benchmarks()) != 54 {
		t.Error("Benchmarks() != 54")
	}
	if len(SelectedBenchmarks()) != 21 {
		t.Error("SelectedBenchmarks() != 21")
	}
	spec, ok := BenchmarkByName("188.ammp")
	if !ok || spec.PaperNMI != 1134 {
		t.Errorf("BenchmarkByName(188.ammp) = %+v, %v", spec, ok)
	}
	spec.PaperMDAs /= 200
	w, err := GenerateWorkload(spec)
	if err != nil {
		t.Fatal(err)
	}
	m := mem.New()
	w.Load(m, RefInput)
	c, err := RunCensus(m, w.Entry(), 1<<28)
	if err != nil || !c.Halted {
		t.Fatalf("census: %v (halted=%v)", err, c != nil && c.Halted)
	}
	if c.Ratio() < 0.1 {
		t.Errorf("ammp census ratio = %v, want large", c.Ratio())
	}
}

func TestExperimentRegistryFacade(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) != 22 {
		t.Fatalf("ExperimentIDs = %v, want 22 entries", ids)
	}
	if ids[0] != "table1" {
		t.Errorf("first experiment %q, want table1", ids[0])
	}
	if _, err := RunExperiment(NewExperimentSession(), "nope"); err == nil {
		t.Error("unknown experiment: want error")
	} else if !strings.Contains(err.Error(), "nope") {
		t.Errorf("error %q should name the ID", err)
	}
}

func TestRunExperimentSmall(t *testing.T) {
	s := NewExperimentSession()
	s.Shrink = 400
	s.IterFloor = 300
	r, err := RunExperiment(s, "fig15")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Names) != 21 {
		t.Errorf("fig15 rows = %d, want 21", len(r.Names))
	}
	if !strings.Contains(r.Render(), "FIG15") {
		t.Error("render missing title")
	}
}

func TestCustomMachineParams(t *testing.T) {
	img, err := Assemble(`
	        mov     ebx, 0x10000000
	        mov     eax, dword [ebx+1]
	        halt
	`, GuestCodeBase)
	if err != nil {
		t.Fatal(err)
	}
	params := DefaultMachineParams()
	params.MisalignTrapCycles = 5000
	sys := NewSystemWithParams(MechanismOptions(StaticProfile), params)
	sys.LoadImage(GuestCodeBase, img)
	if err := sys.Run(GuestCodeBase, 1<<24); err != nil {
		t.Fatal(err)
	}
	if c := sys.Machine.Counters(); c.TrapCycles < 5000 {
		t.Errorf("trap cycles = %d, want ≥ 5000 (custom trap cost)", c.TrapCycles)
	}
}

func TestFacadeProfileWorkflow(t *testing.T) {
	img, err := Assemble(`
	        mov     ebx, 0x10000000
	        mov     ecx, 0
	loop:   mov     eax, dword [ebx+6]
	        add     ecx, 1
	        cmp     ecx, 100
	        jl      loop
	        halt
	`, GuestCodeBase)
	if err != nil {
		t.Fatal(err)
	}
	m := mem.New()
	m.WriteBytes(GuestCodeBase, img)
	tp, err := TrainProfile(m, GuestCodeBase, 1<<24)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(tp)
	if err != nil {
		t.Fatal(err)
	}
	var loaded TrapProfile
	if err := json.Unmarshal(data, &loaded); err != nil {
		t.Fatal(err)
	}
	opt := MechanismOptions(StaticProfile)
	opt.StaticSites = loaded.StaticSites()
	sys := NewSystem(opt)
	sys.LoadImage(GuestCodeBase, img)
	if err := sys.Run(GuestCodeBase, 1<<26); err != nil {
		t.Fatal(err)
	}
	if traps := sys.Machine.Counters().MisalignTraps; traps != 0 {
		t.Fatalf("traps = %d with stored profile", traps)
	}
}
