package mapos

// Switch is a software MAPOS switch: frames arriving on a port are
// forwarded by destination address — unicast to the owning port,
// broadcast/group flooded to every other port. NSP address-request
// frames are answered by the switch itself.
//
// The switch operates on decoded frames; byte-level framing is the P5's
// job (see examples/mapos-lan for the full stack).
type Switch struct {
	ports []chan portFrame
	out   []func(src Address, f *Frame)

	// Counters.
	Forwarded, Flooded, Dropped, NSPHandled uint64
}

type portFrame struct {
	port int
	f    *Frame
}

// NewSwitch creates a switch with n ports. Deliver functions are
// registered per port with Attach.
func NewSwitch(n int) *Switch {
	return &Switch{out: make([]func(Address, *Frame), n)}
}

// Attach registers the delivery callback for port n and returns the
// unicast address the switch will assign to that port.
func (s *Switch) Attach(n int, deliver func(src Address, f *Frame)) Address {
	s.out[n] = deliver
	return PortAddress(n)
}

// Ingress processes a frame arriving on port n. NSP frames are consumed
// by the switch; everything else is forwarded. The source address of a
// MAPOS v1 frame is implicit in the arrival port.
func (s *Switch) Ingress(n int, f *Frame) {
	src := PortAddress(n)
	if f.Protocol == ProtoNSP {
		s.handleNSP(n, f)
		return
	}
	switch {
	case f.Dest.IsBroadcast() || f.Dest.IsGroup():
		s.Flooded++
		for i, deliver := range s.out {
			if i != n && deliver != nil {
				deliver(src, f)
			}
		}
	case f.Dest.IsUnicast():
		p := f.Dest.Port()
		if p >= 0 && p < len(s.out) && s.out[p] != nil {
			s.Forwarded++
			s.out[p](src, f)
		} else {
			s.Dropped++
		}
	default:
		s.Dropped++
	}
}

func (s *Switch) handleNSP(n int, f *Frame) {
	msg, err := ParseNSP(f.Payload)
	if err != nil {
		s.Dropped++
		return
	}
	s.NSPHandled++
	switch msg.Type {
	case NSPAddressRequest:
		if s.out[n] != nil {
			reply := NSP{Type: NSPAddressAssign, Address: PortAddress(n)}
			s.out[n](Broadcast, &Frame{
				Dest:     PortAddress(n),
				Protocol: ProtoNSP,
				Payload:  reply.Marshal(nil),
			})
		}
	case NSPAddressRelease:
		if s.out[n] != nil {
			reply := NSP{Type: NSPAddressConfirm, Address: PortAddress(n)}
			s.out[n](Broadcast, &Frame{
				Dest:     PortAddress(n),
				Protocol: ProtoNSP,
				Payload:  reply.Marshal(nil),
			})
		}
	}
}

// Node is a MAPOS endpoint: it acquires an address via NSP and exchanges
// frames through a transmit callback wired to a switch port.
type Node struct {
	Addr Address
	send func(*Frame)
	recv func(src Address, payload []byte)
}

// NewNode creates a node. send transmits toward the switch; recv receives
// IP payloads delivered to this node.
func NewNode(send func(*Frame), recv func(src Address, payload []byte)) *Node {
	return &Node{Addr: Unassigned, send: send, recv: recv}
}

// AcquireAddress sends the NSP address request; the address arrives via
// Deliver.
func (n *Node) AcquireAddress() {
	msg := NSP{Type: NSPAddressRequest, Address: Unassigned}
	n.send(&Frame{Dest: Broadcast, Protocol: ProtoNSP, Payload: msg.Marshal(nil)})
}

// Deliver handles a frame arriving from the switch.
func (n *Node) Deliver(src Address, f *Frame) {
	switch f.Protocol {
	case ProtoNSP:
		if msg, err := ParseNSP(f.Payload); err == nil && msg.Type == NSPAddressAssign {
			n.Addr = msg.Address
		}
	case ProtoIP:
		if n.recv != nil {
			n.recv(src, f.Payload)
		}
	}
}

// SendIP transmits an IP payload to the destination address.
func (n *Node) SendIP(dst Address, payload []byte) {
	n.send(&Frame{Dest: dst, Protocol: ProtoIP, Payload: payload})
}
