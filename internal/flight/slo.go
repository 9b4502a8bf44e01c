package flight

import (
	"math"
	"sync/atomic"

	"repro/internal/telemetry"
)

// SLOConfig sets the service-level objectives a link is held to. The
// zero value gives the repo's defaults: loss ≤ 1e-3, p99 end-to-end
// latency ≤ 8 ticks (1 ms at 125 µs/tick). Failover is held to
// failoverBudgetTicks, burn rates are computed over sloWindow, and the
// alarm raises at alarmBurn.
type SLOConfig struct {
	// FrameLossTarget is the objective's maximum frame-loss ratio
	// (default 1e-3).
	FrameLossTarget float64
	// P99BudgetTicks is the end-to-end p99 latency budget (default 8).
	P99BudgetTicks int64
}

const (
	// sloWindow is the rolling evaluation window in virtual ticks. Burn
	// rates are computed over the trailing window with sloWindow/8
	// granularity.
	sloWindow = 2048
	// failoverBudgetTicks is the protection-switch duration budget:
	// 400 ticks = the GR-253 50 ms.
	failoverBudgetTicks = 400
	// alarmBurn is the worst-objective burn rate at which the SLO
	// alarms; it clears below half that, for hysteresis.
	alarmBurn = 4
)

func (c SLOConfig) withDefaults() SLOConfig {
	if c.FrameLossTarget <= 0 {
		c.FrameLossTarget = 1e-3
	}
	if c.P99BudgetTicks <= 0 {
		c.P99BudgetTicks = 8
	}
	return c
}

// Sources supply the cumulative series an SLO evaluates. All funcs
// must be safe to call from the sampling goroutine; nil funcs read as
// zero.
type Sources struct {
	// Frames is the cumulative count of frames the objective covers
	// (delivered + lost).
	Frames func() uint64
	// Errors is the cumulative count of lost or errored frames.
	Errors func() uint64
	// P99 is the current end-to-end p99 latency in ticks.
	P99 func() int64
	// Failover is the most recent protection-switch duration in
	// ticks (0 = no switch yet).
	Failover func() int64
}

type sloPoint struct {
	at             int64
	frames, errors uint64
}

// SLO evaluates rolling error budgets and burn rates for one link.
// Sample is called from the link's service loop; the published values
// are atomic and may be read (or scraped) from anywhere. A burn rate
// of 1.0 means the objective is being consumed exactly at target; 4x
// sustained exhausts a budget 4x early and raises the alarm.
type SLO struct {
	cfg SLOConfig
	src Sources

	// rolling checkpoints, Window/8 apart, oldest first
	points []sloPoint

	lossBurnM atomic.Int64 // milli-units
	p99BurnM  atomic.Int64
	failBurnM atomic.Int64
	worstM    atomic.Int64
	budgetM   atomic.Int64 // remaining lifetime error budget, 0..1000
	p99Ticks  atomic.Int64
	alarmed   atomic.Bool

	// OnAlarm, when set, fires once on each rising alarm edge with the
	// worst-burning objective's name. Set before sampling starts.
	OnAlarm func(objective string)
}

// NewSLO builds an evaluator named for its link and registers its
// gauges (slo_* family, labelled slo=name) in reg; reg may be nil.
func NewSLO(reg *telemetry.Registry, name string, cfg SLOConfig, src Sources) *SLO {
	s := &SLO{cfg: cfg.withDefaults(), src: src}
	s.budgetM.Store(1000)
	if reg != nil {
		lk := telemetry.L("slo", name)
		milli := func(v *atomic.Int64) func() float64 {
			return func() float64 { return float64(v.Load()) / 1000 }
		}
		reg.GaugeFunc("slo_burn_rate", "rolling error-budget burn rate",
			milli(&s.lossBurnM), lk, telemetry.L("objective", "frame_loss"))
		reg.GaugeFunc("slo_burn_rate", "rolling error-budget burn rate",
			milli(&s.p99BurnM), lk, telemetry.L("objective", "p99_latency"))
		reg.GaugeFunc("slo_burn_rate", "rolling error-budget burn rate",
			milli(&s.failBurnM), lk, telemetry.L("objective", "failover"))
		reg.GaugeFunc("slo_worst_burn_rate", "max burn rate across objectives", milli(&s.worstM), lk)
		reg.GaugeFunc("slo_error_budget_remaining", "lifetime frame-loss budget left (1 = untouched)", milli(&s.budgetM), lk)
		reg.GaugeFunc("slo_alarm", "1 while the worst burn rate exceeds the alarm threshold",
			func() float64 {
				if s.alarmed.Load() {
					return 1
				}
				return 0
			}, lk)
		reg.GaugeFunc("slo_p99_latency_ticks", "current end-to-end p99 estimate", func() float64 { return float64(s.p99Ticks.Load()) }, lk)
	}
	return s
}

func milliClamp(v float64) int64 {
	if v < 0 || math.IsNaN(v) {
		return 0
	}
	if v > math.MaxInt64/2048 {
		return math.MaxInt64 / 2048
	}
	return int64(v * 1000)
}

// Sample re-evaluates the objectives at virtual time now. Cheap when
// called often: checkpoints advance only every Window/8 ticks, but the
// instantaneous gauges refresh on every call.
func (s *SLO) Sample(now int64) {
	frames, errors := uint64(0), uint64(0)
	if s.src.Frames != nil {
		frames = s.src.Frames()
	}
	if s.src.Errors != nil {
		errors = s.src.Errors()
	}

	gran := int64(sloWindow / 8)
	if gran < 1 {
		gran = 1
	}
	if len(s.points) == 0 || now-s.points[len(s.points)-1].at >= gran {
		s.points = append(s.points, sloPoint{at: now, frames: frames, errors: errors})
		// Keep one point older than the window as the subtrahend.
		for len(s.points) > 2 && now-s.points[1].at >= sloWindow {
			s.points = s.points[1:]
		}
	}
	base := s.points[0]

	// Frame-loss burn: windowed loss ratio over target.
	dF := frames - base.frames
	dE := errors - base.errors
	lossRatio := 0.0
	if dF > 0 {
		lossRatio = float64(dE) / float64(dF)
	} else if dE > 0 {
		lossRatio = 1
	}
	lossBurn := lossRatio / s.cfg.FrameLossTarget
	s.lossBurnM.Store(milliClamp(lossBurn))

	// p99 latency burn: current estimate over budget.
	p99 := int64(0)
	if s.src.P99 != nil {
		p99 = s.src.P99()
	}
	s.p99Ticks.Store(p99)
	p99Burn := float64(p99) / float64(s.cfg.P99BudgetTicks)
	s.p99BurnM.Store(milliClamp(p99Burn))

	// Failover burn: last switch duration over the 50 ms budget.
	fo := int64(0)
	if s.src.Failover != nil {
		fo = s.src.Failover()
	}
	failBurn := float64(fo) / failoverBudgetTicks
	s.failBurnM.Store(milliClamp(failBurn))

	worst, objective := lossBurn, "frame_loss"
	if p99Burn > worst {
		worst, objective = p99Burn, "p99_latency"
	}
	if failBurn > worst {
		worst, objective = failBurn, "failover"
	}
	s.worstM.Store(milliClamp(worst))

	// Lifetime error budget: fraction of the allowed loss not yet
	// consumed.
	budget := 1.0
	if frames > 0 {
		allowed := s.cfg.FrameLossTarget * float64(frames)
		if allowed > 0 {
			budget = 1 - float64(errors)/allowed
		}
		if budget < 0 {
			budget = 0
		}
	}
	s.budgetM.Store(milliClamp(budget))

	// Alarm with hysteresis: raise at alarmBurn, clear below half.
	if worst >= alarmBurn {
		if !s.alarmed.Swap(true) && s.OnAlarm != nil {
			s.OnAlarm(objective)
		}
	} else if worst < alarmBurn/2 {
		s.alarmed.Store(false)
	}
}

// WorstBurnMilli returns the worst objective's burn rate in
// milli-units (1000 = burning exactly at target) — the value the OAM
// block exposes in RegSLOBurn.
func (s *SLO) WorstBurnMilli() int64 { return s.worstM.Load() }

// Alarmed reports whether the SLO alarm is currently raised.
func (s *SLO) Alarmed() bool { return s.alarmed.Load() }
