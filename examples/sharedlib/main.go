// Sharedlib: the paper's §II observation that most MDAs in several SPEC
// benchmarks come from shared libraries (libc etc.) — so even binaries
// compiled with alignment flags still misalign at runtime. This example
// uses the 164.gzip model, whose MDA groups live behind a call into a
// separately loaded "shared library" image, takes a census, and then shows
// that the translator's exception handler patches library code exactly
// like application code.
//
//	go run ./examples/sharedlib
package main

import (
	"fmt"
	"log"

	"mdabt"
	"mdabt/internal/mem"
)

func main() {
	spec, _ := mdabt.BenchmarkByName("164.gzip")
	spec.PaperMDAs /= 20 // keep the example snappy
	prog, err := mdabt.GenerateWorkload(spec)
	if err != nil {
		log.Fatal(err)
	}

	// Census: where do the MDAs come from?
	m := mem.New()
	prog.Load(m, mdabt.RefInput)
	census, err := mdabt.RunCensus(m, prog.Entry(), 1<<30)
	if err != nil {
		log.Fatal(err)
	}
	var appMDAs, libMDAs uint64
	var appSites, libSites int
	for _, s := range census.Sites {
		if s.MDA == 0 {
			continue
		}
		if s.PC >= mdabt.GuestSharedLib {
			libMDAs += s.MDA
			libSites++
		} else {
			appMDAs += s.MDA
			appSites++
		}
	}
	fmt.Printf("164.gzip model census (%d memory refs, %.2f%% misaligned):\n",
		census.MemRefs, 100*census.Ratio())
	fmt.Printf("  application image: %3d MDA sites, %8d MDAs\n", appSites, appMDAs)
	fmt.Printf("  shared library:    %3d MDA sites, %8d MDAs (%.0f%% of all MDAs)\n",
		libSites, libMDAs, 100*float64(libMDAs)/float64(libMDAs+appMDAs))
	fmt.Println()

	// Run under the exception-handling translator: library sites get
	// patched the same way.
	sys := mdabt.NewSystem(mdabt.MechanismOptions(mdabt.ExceptionHandling))
	prog.Load(sys.Mem, mdabt.RefInput)
	if err := sys.Run(prog.Entry(), 1<<33); err != nil {
		log.Fatal(err)
	}
	c := sys.Machine.Counters()
	s := sys.Engine.Stats()
	fmt.Printf("exception-handling run: %d traps, %d sites patched, %d cycles\n",
		c.MisalignTraps, s.Patches, c.Cycles)
	fmt.Println()
	fmt.Println("Even if an ISV ships the application aligned, the library traffic")
	fmt.Println("still misaligns — the BT must handle MDAs it cannot see coming.")
}
