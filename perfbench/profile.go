package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Attribution of CPU-profile samples to the repository's modules. A
// module is a package directory under internal/ (all app models together
// form "apps"), the root package "whodunit", and the benchmark itself
// ("bench"). Anything else in the repository counts as "other"; samples
// with no repository frame at all (GC workers, the idle scheduler) count
// as "runtime".

// modules lists every module the traced run reports, in output order.
var modules = []string{
	"vclock", "vm", "shmflow", "profiler", "cct", "tranctx", "ipc", "minidb",
	"mesh", "stitch", "whodunit", "apps", "workload", "trace", "par", "window",
	"bench", "other",
}

var knownModule = func() map[string]bool {
	m := map[string]bool{}
	for _, name := range modules {
		m[name] = true
	}
	return m
}()

// moduleOf maps a fully qualified function name to its module, or "" for
// code outside the repository.
func moduleOf(fn string) string {
	switch {
	case strings.HasPrefix(fn, "main."):
		return "bench"
	case strings.HasPrefix(fn, "whodunit."):
		return "whodunit"
	case strings.HasPrefix(fn, "whodunit/internal/apps/"):
		return "apps"
	case strings.HasPrefix(fn, "whodunit/internal/"):
		rest := fn[len("whodunit/internal/"):]
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			rest = rest[:i]
		}
		if knownModule[rest] {
			return rest
		}
		return "other"
	case strings.HasPrefix(fn, "whodunit/"):
		return "other"
	}
	return ""
}

// barrierFrames mark the epoch engine's barrier: the conservative loop,
// the cross-domain exchange and the worker fan-out. Time under them but
// outside a domain's own event loop (domainLoopFrames) is barrier time.
var barrierFrames = []string{
	"whodunit/internal/vclock.(*Group).epochRun",
	"whodunit/internal/vclock.(*Group).exchange",
	"whodunit/internal/vclock.(*Group).nextEventTime",
	"whodunit/internal/par.Do",
}

var domainLoopFrames = []string{
	"whodunit/internal/vclock.(*Sim).RunBefore",
	"whodunit/internal/vclock.(*Sim).RunUntil",
}

// schedFrames are the Go scheduler's park, dispatch and futex paths.
var schedFrames = map[string]bool{
	"runtime.schedule": true, "runtime.findRunnable": true, "runtime.park_m": true,
	"runtime.gopark": true, "runtime.goready": true, "runtime.ready": true,
	"runtime.futex": true, "runtime.futexsleep": true, "runtime.futexwakeup": true,
	"runtime.wakep": true, "runtime.startm": true, "runtime.stopm": true,
	"runtime.notesleep": true, "runtime.notewakeup": true, "runtime.mcall": true,
	"runtime.goschedImpl": true, "runtime.execute": true, "runtime.stealWork": true,
	"runtime.runqgrab": true, "runtime.newproc": true,
}

// cpuAttribution accumulates profiled CPU nanoseconds.
type cpuAttribution struct {
	samples int64
	self    map[string]int64 // innermost repository frame's module, or "runtime"
	incl    map[string]int64 // every module on the stack, once per sample
	barrier int64
	sched   int64
}

func newCPUAttribution() *cpuAttribution {
	return &cpuAttribution{self: map[string]int64{}, incl: map[string]int64{}}
}

// add attributes one stack (innermost frame first) that cost ns of CPU.
func (a *cpuAttribution) add(stack []string, ns int64) {
	a.samples++
	self := "runtime"
	seen := map[string]bool{}
	inBarrier, inLoop, inSched := false, false, false
	for _, fn := range stack {
		if m := moduleOf(fn); m != "" {
			if self == "runtime" {
				self = m
			}
			if !seen[m] {
				seen[m] = true
				a.incl[m] += ns
			}
		}
		for _, p := range barrierFrames {
			if strings.HasPrefix(fn, p) {
				inBarrier = true
			}
		}
		for _, p := range domainLoopFrames {
			if strings.HasPrefix(fn, p) {
				inLoop = true
			}
		}
		if schedFrames[fn] {
			inSched = true
		}
	}
	a.self[self] += ns
	if inBarrier && !inLoop {
		a.barrier += ns
	}
	if inSched {
		a.sched += ns
	}
}

// addProfile decodes a gzipped pprof CPU profile, as runtime/pprof writes
// it, and attributes every sample.
func (a *cpuAttribution) addProfile(gz []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	// The CPU value is the last sample value (samples/count, cpu/nanoseconds).
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		var stack []string
		for _, id := range s.locs {
			for _, fid := range p.locFuncs[id] {
				stack = append(stack, p.strings[p.funcNames[fid]])
			}
		}
		a.add(stack, s.values[len(s.values)-1])
	}
	return nil
}

// profile is the subset of profile.proto the attribution needs.
type profile struct {
	samples   []profSample
	locFuncs  map[uint64][]uint64 // location id -> function ids, innermost first
	funcNames map[uint64]int64    // function id -> string table index
	strings   []string
}

type profSample struct {
	locs   []uint64 // innermost first
	values []int64
}

// decodeProfile is a minimal protobuf decoder for profile.proto: samples
// (field 2), locations (4), functions (5) and the string table (6).
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	err := eachField(b, func(field int, wire int, v uint64, data []byte) error {
		switch field {
		case 2:
			var s profSample
			err := eachField(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, w, v, d)
				case 2:
					for _, x := range appendVarints(nil, w, v, d) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var funcs []uint64
			err := eachField(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return eachField(d, func(lf, lw int, lv uint64, _ []byte) error {
						if lf == 1 {
							funcs = append(funcs, lv)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = funcs
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcNames[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, idx := range p.funcNames {
		if idx < 0 || idx >= int64(len(p.strings)) {
			return nil, errors.New("function name outside the string table")
		}
	}
	return p, nil
}

// appendVarints appends a repeated integer field, packed (wire type 2)
// or not (wire type 0).
func appendVarints(dst []uint64, wire int, v uint64, data []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}

// eachField walks the top-level fields of one protobuf message. Varint
// fields arrive in v, length-delimited ones in data.
func eachField(b []byte, fn func(field, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}
