package trace

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// ErrBadCSV reports a malformed trace file.
var ErrBadCSV = errors.New("trace: malformed CSV")

// FromCSV loads a demand trace from CSV lines of the form
//
//	<offset_seconds>,<rate>
//
// Blank lines and lines starting with '#' are skipped; a single header
// line of non-numeric fields is tolerated. Rates are normalized to the
// series maximum so the result plugs into the same machinery as the
// built-in traces. Offsets must be strictly increasing.
func FromCSV(r io.Reader) (*Trace, error) {
	scanner := bufio.NewScanner(r)
	var points []Point
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		line := strings.TrimSpace(scanner.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		secText, rateText, ok := strings.Cut(line, ",")
		if !ok {
			return nil, fmt.Errorf("%w: line %d: want offset,rate", ErrBadCSV, lineNo)
		}
		sec, err1 := strconv.ParseFloat(strings.TrimSpace(secText), 64)
		rate, err2 := strconv.ParseFloat(strings.TrimSpace(rateText), 64)
		if err1 != nil || err2 != nil {
			if len(points) == 0 && lineNo == 1 {
				continue // header row
			}
			return nil, fmt.Errorf("%w: line %d: non-numeric fields", ErrBadCSV, lineNo)
		}
		if rate < 0 {
			return nil, fmt.Errorf("%w: line %d: negative rate", ErrBadCSV, lineNo)
		}
		at := time.Duration(sec * float64(time.Second))
		if len(points) > 0 && at <= points[len(points)-1].At {
			return nil, fmt.Errorf("%w: line %d: offsets must increase", ErrBadCSV, lineNo)
		}
		points = append(points, Point{At: at, Rate: rate})
	}
	if err := scanner.Err(); err != nil {
		return nil, fmt.Errorf("trace: read CSV: %w", err)
	}
	if len(points) < 2 {
		return nil, fmt.Errorf("%w: need at least 2 points, got %d", ErrBadCSV, len(points))
	}

	peak := 0.0
	for _, p := range points {
		if p.Rate > peak {
			peak = p.Rate
		}
	}
	if peak <= 0 {
		return nil, fmt.Errorf("%w: all rates are zero", ErrBadCSV)
	}
	for i := range points {
		points[i].Rate = clamp01(points[i].Rate / peak)
	}
	return &Trace{Points: points}, nil
}
