package gigapos

import (
	"repro/internal/lcp"
	"repro/internal/netsim"
	"repro/internal/sonet"
	"repro/internal/vj"
)

// This file adds defect-driven self-healing to the Link: a supervisor
// that consumes SONET defect transitions (NotifyDefects) and echo
// timeouts, tears the link down cleanly, and re-runs
// LCP/auth/IPCP with capped exponential backoff until the line heals.

// The alarm word NotifyDefects takes is the sonet.Defect bit set (the
// P5 OAM alarm register's layout) plus AlarmTransportLOS.
const (
	// AlarmTransportLOS reports loss of the line *transport* — the
	// socket or pipe carrying the wire octets — rather than a SONET
	// receive defect. Deliberately outside the sonet.Defect bit range;
	// a transport port raises it when dead-peer detection gives up and
	// clears it when the socket comes back.
	AlarmTransportLOS = uint32(1) << 16

	// AlarmServiceAffecting is the subset that makes the line unusable:
	// the supervisor holds off re-open attempts while any is active.
	AlarmServiceAffecting = uint32(sonet.ServiceAffecting) | AlarmTransportLOS
)

// SupervisorStats is the supervisor's observable record.
type SupervisorStats struct {
	// Restarts counts re-open attempts issued.
	Restarts uint64
	// Recoveries counts returns to Opened after an outage.
	Recoveries uint64
	// DefectOutages counts service-affecting defect windows reported
	// through NotifyDefects.
	DefectOutages uint64
	// RetryTimes records the virtual time of the most recent restart
	// attempts (bounded at retryTimesCap, oldest dropped first) — the
	// exponential backoff is visible in the spacing. Restarts keeps the
	// exact total.
	RetryTimes []int64
}

// retryTimesCap bounds the retry-timestamp log so an endless outage in
// a long soak cannot grow it without limit.
const retryTimesCap = 64

// supervisor is the per-link self-healing state machine.
type supervisor struct {
	SupervisorStats

	lineOK    bool         // no service-affecting defect currently reported
	wasOpened bool         // LCP state seen by the previous service pass
	outage    bool         // between a loss of Opened and the next recovery
	kick      bool         // line healed: retry immediately
	retryAt   int64        // next scheduled restart (0 = none)
	backoff   int64        // current retry interval
	rng       *netsim.Rand // jitter source for retry scheduling
}

// jitter spreads a retry delay by ±20%, so a population of links taken
// down by the same event de-synchronises its re-open attempts instead
// of retrying in lockstep (the thundering herd). The backoff doubling
// itself stays deterministic; only the scheduled instant is jittered.
func (s *supervisor) jitter(d int64) int64 {
	j := d * int64(80+s.rng.Intn(41)) / 100
	if j < 1 {
		j = 1
	}
	return j
}

func (c LinkConfig) retryMin() int64 {
	if c.RetryMin > 0 {
		return c.RetryMin
	}
	return 8
}

func (c LinkConfig) retryMax() int64 {
	if c.RetryMax > 0 {
		return c.RetryMax
	}
	return 256
}

// Supervisor returns a snapshot of the self-healing supervisor's
// statistics (zero value when supervision is disabled).
func (l *Link) Supervisor() SupervisorStats {
	if l.sup == nil {
		return SupervisorStats{}
	}
	s := l.sup.SupervisorStats
	s.RetryTimes = append([]int64(nil), s.RetryTimes...)
	return s
}

// NotifyDefects reports the current alarm set for the receive line: the
// sonet.Defect bits plus AlarmTransportLOS. Wire it to a
// sonet.DefectMonitor's OnEvent — or to the P5 OAM alarm register — so
// physical-layer supervision drives the PPP state machine. A
// service-affecting defect takes the link down and parks the
// supervisor; the all-clear triggers an immediate re-open.
func (l *Link) NotifyDefects(active uint32) {
	s := l.sup
	if s == nil {
		return
	}
	if active&AlarmServiceAffecting != 0 {
		if s.lineOK {
			s.lineOK = false
			s.DefectOutages++
			reason := "defect-outage"
			if active&AlarmTransportLOS != 0 {
				reason = "transport-los"
			}
			l.trace(reason, "", int64(active), 0)
			l.flightTrigger(reason)
			l.resetTransport()
			l.lcpA.Down()
		}
		return
	}
	if !s.lineOK {
		s.lineOK = true
		s.kick = true
		l.trace("line-clear", "", int64(active), 0)
	}
}

// serviceSupervisor runs once per Advance: it observes LCP transitions,
// schedules re-open attempts with capped exponential backoff, and fires
// them when due and the line is healthy.
func (l *Link) serviceSupervisor(now int64) {
	s := l.sup
	if s == nil {
		return
	}
	opened := l.Opened()
	if opened && !s.wasOpened {
		if s.outage {
			s.Recoveries++
			s.outage = false
			l.trace("recovered", "", int64(s.Recoveries), 0)
		}
		s.backoff = l.cfg.retryMin()
		s.retryAt = 0
	}
	if !opened && s.wasOpened {
		s.outage = true
		if s.backoff == 0 {
			s.backoff = l.cfg.retryMin()
		}
		s.retryAt = now + s.jitter(s.backoff)
	}
	s.wasOpened = opened

	if opened {
		return
	}

	// LCP gave up on its own (Max-Configure exhaustion → Stopped):
	// schedule a supervised retry even if we never reached Opened.
	if l.lcpA.State() == lcp.Stopped && s.retryAt == 0 && s.lineOK {
		if s.backoff == 0 {
			s.backoff = l.cfg.retryMin()
		}
		s.retryAt = now + s.jitter(s.backoff)
	}

	if s.kick {
		s.kick = false
		if s.lineOK {
			// The line just healed: fresh backoff, immediate attempt.
			s.backoff = l.cfg.retryMin()
			l.restartLCP(now)
			return
		}
	}
	if s.retryAt != 0 && now >= s.retryAt && s.lineOK {
		l.restartLCP(now)
	}
}

// restartLCP issues one re-open attempt: flush stale transport state,
// then Down+Up re-arms the automaton (from Stopped this is the RFC 1661
// restart option; from Starting the Down is a no-op). The next attempt
// is pre-armed at double the interval, capped at RetryMax.
func (l *Link) restartLCP(now int64) {
	s := l.sup
	switch l.lcpA.State() {
	case lcp.Starting, lcp.Stopped:
	default:
		// Negotiation in flight or administratively closed: let the
		// automaton's own timers run; Stopped re-arms us if it gives up.
		s.retryAt = 0
		return
	}
	s.Restarts++
	if len(s.RetryTimes) >= retryTimesCap {
		n := copy(s.RetryTimes, s.RetryTimes[len(s.RetryTimes)-retryTimesCap+1:])
		s.RetryTimes = s.RetryTimes[:n]
	}
	s.RetryTimes = append(s.RetryTimes, now)
	l.trace("restart", "", now, s.backoff)
	l.flightTrigger("supervisor-restart")
	l.resetTransport()
	l.lcpA.Down()
	l.lcpA.Up()
	s.backoff *= 2
	if max := l.cfg.retryMax(); s.backoff > max {
		s.backoff = max
	}
	s.retryAt = now + s.jitter(s.backoff)
}

// resetTransport discards per-connection receive state that must not
// survive a re-open: a partial HDLC frame in the tokenizer, echo
// bookkeeping, and VJ compression slots (RFC 1144 state is per
// connection establishment).
func (l *Link) resetTransport() {
	l.tk = l.cfg.tokenizer()
	l.echoNext = 0
	l.echoPending = 0
	if l.fl != nil {
		// Frames tagged before the reset can never arrive: retire them
		// as lost now instead of waiting out the horizon.
		l.fl.rec.Flush()
	}
	if l.cfg.WantVJ {
		l.vjRx = vj.NewDecompressor()
	}
	if l.cfg.AllowVJ {
		l.vjTx = vj.NewCompressor()
	}
}
