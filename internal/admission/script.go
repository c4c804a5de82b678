package admission

import (
	"bufio"
	"fmt"
	"math/big"
	"strconv"
	"strings"

	"accelshare/internal/mpsoc"
	"accelshare/internal/sim"
)

// OpKind is a scripted request kind.
type OpKind string

// Script operations.
const (
	OpAdd     OpKind = "add"
	OpRemove  OpKind = "remove"
	OpReadmit OpKind = "readmit"
)

// Op is one scripted admission request, fired at simulated time At.
type Op struct {
	At   sim.Time
	Kind OpKind
	Name string
	// AddStream parameters (OpAdd only).
	Rate          *big.Rat
	Reconfig      sim.Time
	Decimation    int64
	InCap, OutCap int
	SourcePeriod  sim.Time
	TotalInputs   uint64
}

// ParseScript reads an admission campaign script: one request per line,
//
//	<at> add <name> rate=<num>/<den> [reconfig=R] [decim=D] [incap=N]
//	         [outcap=N] [period=P] [inputs=N]
//	<at> remove <name>
//	<at> readmit <name>
//
// with '#' comments and blank lines ignored. Times are simulation cycles;
// rate is μs in samples per second (a plain integer is also accepted).
func ParseScript(text string) ([]Op, error) {
	var ops []Op
	sc := bufio.NewScanner(strings.NewReader(text))
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 3 {
			return nil, fmt.Errorf("script line %d: want '<at> <op> <name> ...', got %q", lineNo, line)
		}
		at, err := strconv.ParseUint(fields[0], 10, 63)
		if err != nil {
			return nil, fmt.Errorf("script line %d: bad time %q", lineNo, fields[0])
		}
		op := Op{At: sim.Time(at), Kind: OpKind(fields[1]), Name: fields[2], Decimation: 1}
		switch op.Kind {
		case OpRemove, OpReadmit:
			if len(fields) > 3 {
				return nil, fmt.Errorf("script line %d: %s takes only a name", lineNo, op.Kind)
			}
		case OpAdd:
			for _, kv := range fields[3:] {
				key, val, ok := strings.Cut(kv, "=")
				if !ok {
					return nil, fmt.Errorf("script line %d: bad parameter %q", lineNo, kv)
				}
				switch key {
				case "rate":
					r, ok := new(big.Rat).SetString(val)
					if !ok || r.Sign() <= 0 {
						return nil, fmt.Errorf("script line %d: bad rate %q", lineNo, val)
					}
					op.Rate = r
				case "reconfig":
					n, err := strconv.ParseUint(val, 10, 63)
					if err != nil {
						return nil, fmt.Errorf("script line %d: bad reconfig %q", lineNo, val)
					}
					op.Reconfig = sim.Time(n)
				case "decim":
					n, err := strconv.ParseInt(val, 10, 64)
					if err != nil || n < 1 {
						return nil, fmt.Errorf("script line %d: bad decim %q", lineNo, val)
					}
					op.Decimation = n
				case "incap":
					n, err := strconv.Atoi(val)
					if err != nil || n < 1 {
						return nil, fmt.Errorf("script line %d: bad incap %q", lineNo, val)
					}
					op.InCap = n
				case "outcap":
					n, err := strconv.Atoi(val)
					if err != nil || n < 1 {
						return nil, fmt.Errorf("script line %d: bad outcap %q", lineNo, val)
					}
					op.OutCap = n
				case "period":
					n, err := strconv.ParseUint(val, 10, 63)
					if err != nil {
						return nil, fmt.Errorf("script line %d: bad period %q", lineNo, val)
					}
					op.SourcePeriod = sim.Time(n)
				case "inputs":
					n, err := strconv.ParseUint(val, 10, 64)
					if err != nil {
						return nil, fmt.Errorf("script line %d: bad inputs %q", lineNo, val)
					}
					op.TotalInputs = n
				default:
					return nil, fmt.Errorf("script line %d: unknown parameter %q", lineNo, key)
				}
			}
			if op.Rate == nil {
				return nil, fmt.Errorf("script line %d: add needs rate=", lineNo)
			}
		default:
			return nil, fmt.Errorf("script line %d: unknown op %q", lineNo, fields[1])
		}
		if n := len(ops); n > 0 && ops[n-1].At > op.At {
			return nil, fmt.Errorf("script line %d: times must be non-decreasing", lineNo)
		}
		ops = append(ops, op)
	}
	return ops, sc.Err()
}

// FormatEvent renders one event-log entry deterministically (no maps, no
// floats, no pointers), so replayed campaigns compare byte-identical.
func FormatEvent(e Event) string {
	var b strings.Builder
	fmt.Fprintf(&b, "t=%d %s %s", e.At, e.Kind, e.Stream)
	if v := e.Verdict; v != nil {
		if v.Accepted {
			b.WriteString(": admitted blocks[")
			for i, a := range v.Blocks {
				if i > 0 {
					b.WriteByte(' ')
				}
				fmt.Fprintf(&b, "%s=%d", a.Name, a.Block)
			}
			fmt.Fprintf(&b, "] solver=fixed-point/%d bound=%d pause=%d bus=%d",
				v.SolveRounds, v.BoundCycles, v.PauseWait, v.BusCycles)
		} else {
			fmt.Fprintf(&b, ": rejected (%s) %s", v.Reason, v.Detail)
		}
	}
	return b.String()
}

// FormatEvents renders the whole log, one entry per line.
func FormatEvents(events []Event) string {
	var b strings.Builder
	for _, e := range events {
		b.WriteString(FormatEvent(e))
		b.WriteByte('\n')
	}
	return b.String()
}

// Play schedules the script's requests on the controller's kernel. Scripted
// adds build their engines with Config.Engines (Play errors without one).
// Each verdict is appended to the controller's event log as usual; the
// caller runs the kernel to the desired horizon afterwards.
func (c *Controller) Play(ops []Op) error {
	for i := range ops {
		op := ops[i]
		var fire func()
		switch op.Kind {
		case OpAdd:
			if c.cfg.Engines == nil {
				return fmt.Errorf("admission: scripted add needs Config.Engines")
			}
			fire = func() {
				c.AddStream(AddRequest{
					Spec: mpsoc.StreamSpec{
						Name:         op.Name,
						Decimation:   op.Decimation,
						Reconfig:     op.Reconfig,
						InCapacity:   op.InCap,
						OutCapacity:  op.OutCap,
						Engines:      c.cfg.Engines(op.Name),
						SourcePeriod: op.SourcePeriod,
						TotalInputs:  op.TotalInputs,
					},
					Rate: op.Rate,
				}, nil)
			}
		case OpRemove:
			fire = func() { c.RemoveStream(op.Name, nil) }
		case OpReadmit:
			fire = func() { c.Readmit(op.Name, nil) }
		default:
			return fmt.Errorf("admission: unknown scripted op %q", op.Kind)
		}
		c.ms.K.ScheduleAt(op.At, fire)
	}
	return nil
}
