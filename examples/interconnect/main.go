// Interconnect: the paper's Fig. 2 scenario — a CMOS inverter driving a
// second gate through extracted RC interconnect. The switching driver
// is linearized (effective resistance + finite-rise-time ramp, the
// standard timing-analyzer model), the net arrives as a SPICE deck, and
// we compare every delay estimate at the receiving gate's input pin.
//
// Run with: go run ./examples/interconnect
package main

import (
	"fmt"
	"log"

	"elmore"
)

// The extracted net: driver output "out" through two wire segments to
// the receiver pin "g2in", with a branch to a via stub. The driver's
// effective resistance (a 0.9V CMOS inverter, slow-slew corner) is
// folded into R1.
const deck = `.title inverter driving inverter through extracted RC net
Vdrv out 0 1
Rdrv out  w1   220    ; driver effective resistance + contact
Cw1  w1   0    35f
Rw1  w1   w2   140    ; segment 1
Cw2  w2   0    55f
Rst  w2   stub 90     ; via stub
Cst  stub 0    20f
Rw2  w2   g2in 180    ; segment 2
Cg2  g2in 0    80f    ; receiver gate capacitance
.end
`

func main() {
	net, err := elmore.ParseNetlistString(deck)
	if err != nil {
		log.Fatal(err)
	}
	tree := net.Tree
	fmt.Printf("%s\nnodes: %d, total wire+load C: %s\n\n",
		net.Title, tree.N(), elmore.FormatFarads(tree.TotalC()))

	rpt, err := elmore.Analyze(tree)
	if err != nil {
		log.Fatal(err)
	}
	sys, err := elmore.NewExactSystem(tree)
	if err != nil {
		log.Fatal(err)
	}
	pin := tree.MustIndex("g2in")
	bd := rpt.Bounds[pin]

	// The gate's output edge, characterized by the cell library as a
	// function of load: here a 120 ps saturated ramp.
	edge := elmore.Ramp(120e-12)

	actual, err := sys.Delay(pin, edge, 0)
	if err != nil {
		log.Fatal(err)
	}
	ib, err := rpt.ForInput(pin, edge)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Delay estimates at the receiver pin (120 ps input edge):")
	fmt.Printf("  %-34s %s\n", "exact 50% delay:", elmore.FormatSeconds(actual))
	fmt.Printf("  %-34s %s  (proven upper bound)\n", "Elmore T_D:", elmore.FormatSeconds(bd.Elmore))
	fmt.Printf("  %-34s %s  (proven lower bound)\n", "generalized mu-sigma lower:", elmore.FormatSeconds(ib.Lower))
	fmt.Printf("  %-34s %s  (can be optimistic!)\n", "single-pole ln2*T_D:", elmore.FormatSeconds(bd.SinglePole))
	fmt.Printf("  %-34s %s / %s\n", "PRH bounds (step input):",
		elmore.FormatSeconds(bd.PRHTmin), elmore.FormatSeconds(bd.PRHTmax))

	// Higher-order AWE when more accuracy is needed (paper Section V).
	ms, err := elmore.AWEMoments(tree, 6)
	if err != nil {
		log.Fatal(err)
	}
	ap, err := elmore.FitAWE(ms, pin, 3)
	if err != nil {
		log.Fatal(err)
	}
	aweDelay, err := ap.Delay50()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %-34s %s  (order %d)\n", "AWE moment-matched step delay:",
		elmore.FormatSeconds(aweDelay), ap.Order())

	// The receiver's own input edge rate — what the next stage of the
	// timing analysis needs — from the sigma metric vs exact.
	rt, err := sys.RiseTimeStep(pin, 0.1, 0.9)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nOutput edge at the pin: exact 10-90%% = %s, sigma-based estimate = %s\n",
		elmore.FormatSeconds(rt), elmore.FormatSeconds(bd.RiseTime))

	// How conservative is the bound across realistic edges?
	fmt.Println("\nBound tightness vs driver edge rate:")
	for _, tr := range []float64{30e-12, 120e-12, 500e-12, 2e-9} {
		d, err := sys.Delay(pin, elmore.Ramp(tr), 0)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  edge %8s: exact %10s  margin vs T_D %6.1f%%\n",
			elmore.FormatSeconds(tr), elmore.FormatSeconds(d),
			(bd.Elmore-d)/d*100)
	}
}
