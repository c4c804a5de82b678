package ring

// Free returns the available injection-buffer slots. A reading that counts
// a held word puts its step back, as a refused send does: the caller may
// wait for space on it, and the step's wake must reach it. The platform's
// senders never read it (they offer a word and wait on a refusal); the
// ring tests compare its readings with the reference ring's.
func (n *Node) Free() int {
	held := n.held()
	if held == 1 {
		n.restep()
	}
	return n.r.cfg.InjectionDepth - n.injLen - held
}

// Free reports available injection-buffer slots.
func (n *SlottedNode) Free() int { return n.r.cfg.InjectionDepth - len(n.inj) }

// free reads a port's available injection-buffer slots.
func free(p Port) int { return p.(interface{ Free() int }).Free() }
