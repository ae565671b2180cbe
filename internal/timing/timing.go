// Package timing provides clock-domain bookkeeping for the simulator.
//
// The simulated system has three clock domains (Table I of the paper):
// compute cores at 1126 MHz, the interconnect and L2 at 1000 MHz, and the
// GDDR5 command clock at 1750 MHz. The NoC clock is the master simulation
// clock; the other domains are advanced by fractional accumulators so that,
// e.g., the cores receive 1126 ticks for every 1000 NoC cycles without any
// floating-point drift (all arithmetic is integral).
package timing

// Clock tracks how many ticks a slave domain receives per master cycle,
// using exact rational arithmetic: the domain runs at Num/Den times the
// master frequency.
type Clock struct {
	num, den uint64
	acc      uint64
	cycles   uint64 // total slave ticks granted so far
}

// NewClock returns a Clock for a domain running at num/den times the master
// clock. It panics if den == 0 or num == 0.
func NewClock(num, den uint64) *Clock {
	if num == 0 || den == 0 {
		panic("timing: clock ratio must be positive")
	}
	return &Clock{num: num, den: den}
}

// Tick advances the master clock by one cycle and returns how many slave
// ticks elapse (0, 1, or more when the slave is faster than the master).
func (c *Clock) Tick() int {
	c.acc += c.num
	n := c.acc / c.den
	c.acc -= n * c.den
	c.cycles += n
	return int(n)
}

// Cycles returns the total slave ticks granted since construction.
func (c *Clock) Cycles() uint64 { return c.cycles }

// Reset rewinds the clock to time zero.
func (c *Clock) Reset() {
	c.acc = 0
	c.cycles = 0
}
