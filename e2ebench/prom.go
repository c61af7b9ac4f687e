package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// promSnapshot is one scrape of a Prometheus text exposition: series
// (metric name plus its rendered label set, exactly as exposed) to value.
type promSnapshot map[string]float64

// parseProm reads the text exposition format (version 0.0.4), skipping
// comments. Each sample line is "series value" with an optional
// timestamp, which is ignored.
func parseProm(r io.Reader) (promSnapshot, error) {
	snap := make(promSnapshot)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		// Label values may hold spaces, so the series ends at the closing
		// brace when there is one.
		cut := strings.LastIndexByte(text, '}')
		if cut < 0 {
			cut = strings.IndexByte(text, ' ')
			if cut < 0 {
				return nil, fmt.Errorf("prometheus line %d: no value: %q", line, text)
			}
		} else {
			cut++
		}
		series := text[:cut]
		fields := strings.Fields(text[cut:])
		if len(fields) == 0 {
			return nil, fmt.Errorf("prometheus line %d: no value: %q", line, text)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("prometheus line %d: %w", line, err)
		}
		snap[series] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("read prometheus exposition: %w", err)
	}
	return snap, nil
}

// seriesName renders a metric name with an optional label set the way the
// exposition does.
func seriesName(name, labels string) string {
	if labels == "" {
		return name
	}
	return name + "{" + labels + "}"
}

// histDelta is what a histogram observed between two scrapes: the change
// in its _sum (seconds, as exposed) and _count.
type histDelta struct {
	sumSec float64
	count  float64
}

// meanMs is the mean observation in milliseconds, zero with no samples.
func (d histDelta) meanMs() float64 { return ratio(d.sumSec*1e3, d.count) }

// perMs spreads the observed time over n operations, in milliseconds.
func (d histDelta) perMs(n float64) float64 { return ratio(d.sumSec*1e3, n) }

// histogramDelta reads one histogram series' _sum/_count change from
// before to after. A series absent from a scrape counts as zero there (it
// is created on first use).
func histogramDelta(before, after promSnapshot, name, labels string) histDelta {
	sum := seriesName(name+"_sum", labels)
	count := seriesName(name+"_count", labels)
	return histDelta{
		sumSec: after[sum] - before[sum],
		count:  after[count] - before[count],
	}
}
