package simeng

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"isacmp/internal/isa"
)

// ParseLatencyConfig reads a latency model from a SimEng-style core
// description: one "group: latency" pair per line, '#' comments, blank
// lines ignored. Group names are the isa.Group strings (int-simple,
// int-mul, int-div, load, store, branch, fp-simple, fp-add, fp-mul,
// fp-fma, fp-div, fp-sqrt, fp-cvt, system). Groups not mentioned keep
// the base model's value (TX2 by default), mirroring how SimEng
// configs override a template.
func ParseLatencyConfig(r io.Reader, base *LatencyModel) (*LatencyModel, error) {
	model := &LatencyModel{}
	if base == nil {
		base = TX2Latencies()
	}
	*model = *base

	names := map[string]isa.Group{}
	for g := isa.Group(0); g < isa.NumGroups; g++ {
		names[g.String()] = g
	}

	scanner := bufio.NewScanner(r)
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		line := scanner.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		key, val, found := strings.Cut(line, ":")
		if !found {
			return nil, fmt.Errorf("simeng: config line %d: want 'group: latency', got %q", lineNo, line)
		}
		g, ok := names[strings.TrimSpace(key)]
		if !ok {
			return nil, fmt.Errorf("simeng: config line %d: unknown group %q", lineNo, strings.TrimSpace(key))
		}
		n, err := strconv.ParseUint(strings.TrimSpace(val), 10, 32)
		if err != nil || n == 0 {
			return nil, fmt.Errorf("simeng: config line %d: bad latency %q", lineNo, strings.TrimSpace(val))
		}
		model[g] = uint32(n)
	}
	if err := scanner.Err(); err != nil {
		return nil, err
	}
	return model, nil
}
