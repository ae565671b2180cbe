package noc

// roundRobin is a rotating-priority arbiter over n requesters. Grant order
// starts at the slot after the previous winner, so every requester is at
// most n-1 grants from the front (strong fairness).
type roundRobin struct {
	n    int
	next int
}

// pick returns the first index i (scanning next, next+1, ... mod n) for
// which req(i) is true, advancing the pointer past the winner. It returns
// -1 when nothing is requesting.
func (a *roundRobin) pick(req func(i int) bool) int {
	for k := 0; k < a.n; k++ {
		i := (a.next + k) % a.n
		if req(i) {
			a.next = (i + 1) % a.n
			return i
		}
	}
	return -1
}
