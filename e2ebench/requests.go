package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"strings"
)

// endpoints names labd's seven memoized endpoints, in its route order.
var endpoints = []string{"asm", "minic", "cache", "vm", "life", "homework", "survey"}

// homeworkTopics mirrors homework.Topics(); a request for a topic labd
// does not know would fail, which the benchmark counts.
var homeworkTopics = []string{
	"binary-conversion", "binary-arithmetic", "circuits",
	"assembly-trace", "cache-division", "cache-trace",
	"processes", "virtual-memory",
}

// request is one generated labd request. body is nil for GETs.
type request struct {
	method string
	path   string // with the query string for GETs
	body   []byte
}

// makeRequest builds a request for endpoint whose parameters come from
// rng and whose memo key is unique to tag: two tags never share a cache
// entry, so a workload controls its hit ratio by choosing tags. Tags must
// stay below 1<<28 (the vm trace encodes them in two 14-bit addresses).
// With fixedSize, the sizes that set a cache hit's cost (trace lengths,
// problem and student counts) take their mid-range values, so requests
// differ only in content.
func makeRequest(endpoint string, rng *rand.Rand, tag uint64, fixedSize bool) request {
	size := func(lo, n int) int {
		if fixedSize {
			return lo + n/2
		}
		return lo + rng.Intn(n)
	}
	// A request seed unique to the tag (high bits) that still depends on
	// the workload seed through rng (low bits).
	seed := int64(tag)<<20 | int64(rng.Intn(1<<20)) + 1
	switch endpoint {
	case "asm":
		src := fmt.Sprintf(`main:
    movl $%d, %%eax
    movl $0, %%ecx
loop:
    cmpl $%d, %%ecx
    jge done
    addl %%ecx, %%eax
    incl %%ecx
    jmp loop
done:
    movl %%eax, %%ebx
    movl $1, %%eax
    int $0x80
`, tag, 200+rng.Intn(2800))
		return post("/v1/asm/run", map[string]any{"source": src})
	case "minic":
		src := fmt.Sprintf(`int main() {
    int s = %d;
    for (int i = 0; i < %d; i++) { s = s + i * %d; }
    print_int(s);
    return 0;
}`, tag%1_000_000, 50+rng.Intn(450), 1+rng.Intn(9))
		return post("/v1/minic/compile", map[string]any{"source": src, "run": true})
	case "cache":
		var trace strings.Builder
		fmt.Fprintf(&trace, `{"addr":%d}`, tag)
		for i, n := 1, size(128, 385); i < n; i++ {
			fmt.Fprintf(&trace, `,{"addr":%d,"write":%t}`, rng.Intn(1<<14)&^3, rng.Intn(4) == 0)
		}
		return postJSON("/v1/cache/sim", fmt.Sprintf(
			`{"size_bytes":%d,"block_size":%d,"assoc":%d,"trace":[%s]}`,
			512<<rng.Intn(3), 16<<rng.Intn(2), 1<<rng.Intn(3), trace.String()))
	case "vm":
		const span = 64 * 256 // num_pages * page_size: every address is valid
		var trace strings.Builder
		fmt.Fprintf(&trace, `{"pid":1,"addr":%d},{"pid":1,"addr":%d}`, tag%span, tag/span%span)
		for i, n := 2, size(128, 385); i < n; i++ {
			fmt.Fprintf(&trace, `,{"pid":%d,"addr":%d,"write":%t}`, 1+rng.Intn(3), rng.Intn(span), rng.Intn(4) == 0)
		}
		return postJSON("/v1/vm/sim", `{"trace":[`+trace.String()+`]}`)
	case "life":
		return post("/v1/life/run", map[string]any{
			"rows":    128 + rng.Intn(129),
			"cols":    128 + rng.Intn(129),
			"iters":   8 + rng.Intn(25),
			"seed":    seed,
			"threads": 1 + rng.Intn(2),
			"packed":  true,
		})
	case "homework":
		q := url.Values{}
		q.Set("topic", homeworkTopics[rng.Intn(len(homeworkTopics))])
		q.Set("seed", fmt.Sprint(seed))
		q.Set("n", fmt.Sprint(size(1, 5)))
		return request{method: "GET", path: "/v1/homework?" + q.Encode()}
	case "survey":
		q := url.Values{}
		q.Set("seed", fmt.Sprint(seed))
		q.Set("students", fmt.Sprint(size(60, 181)))
		return request{method: "GET", path: "/v1/survey/figure1?" + q.Encode()}
	}
	panic("unknown endpoint " + endpoint)
}

func post(path string, v any) request {
	body, err := json.Marshal(v)
	if err != nil {
		panic(err) // only maps of strings, numbers and bools reach here
	}
	return request{method: "POST", path: path, body: body}
}

// postJSON is post for a body already rendered as JSON (the long traces
// are rendered directly, which is several times cheaper than marshalling
// a slice of maps).
func postJSON(path, body string) request {
	return request{method: "POST", path: path, body: []byte(body)}
}

// mix derives a per-request RNG seed from the workload seed and an index
// (splitmix64 finalizer), so request i is the same whichever sender or
// phase draws it.
func mix(seed int64, i uint64) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + i + 1
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return int64(z ^ z>>31)
}

// Tag ranges keep every phase's cold requests distinct from the others'.
const (
	tagClosed = 0       // closed-loop phase
	tagOpen   = 1 << 25 // open-loop phase(s)
	tagWarm   = 1 << 26 // set-up warm traffic
	tagHot    = 1 << 27 // the hot set
)

// coldRequest is request i of a cold stream: a uniformly drawn endpoint
// with sizes from the request's own RNG and a unique memo key.
func coldRequest(seed int64, tag uint64) request {
	rng := rand.New(rand.NewSource(mix(seed, tag)))
	return makeRequest(endpoints[rng.Intn(len(endpoints))], rng, tag, false)
}

// hotSet is the serve-hot request population: perEndpoint distinct
// requests on each of the seven endpoints, drawn by a seeded Zipf
// distribution over their ranks. Rank r is a request on endpoint
// r mod 7, so every seed gives each endpoint the same share of the
// traffic and the seed changes only which requests those are; the
// workload's cost then stays put from seed to seed.
type hotSet struct {
	reqs []request // by rank
	seq  []uint16  // rank drawn by draw i, i mod len(seq)
}

func newHotSet(seed int64, perEndpoint int) *hotSet {
	rng := rand.New(rand.NewSource(mix(seed, tagHot)))
	h := &hotSet{}
	for len(h.reqs) < perEndpoint*len(endpoints) {
		ep := endpoints[len(h.reqs)%len(endpoints)]
		h.reqs = append(h.reqs, makeRequest(ep, rng, uint64(tagHot+len(h.reqs)), true))
	}
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(h.reqs)-1))
	h.seq = make([]uint16, 1<<16)
	for i := range h.seq {
		h.seq[i] = uint16(zipf.Uint64())
	}
	return h
}

// draw returns the hot-set index of draw i.
func (h *hotSet) draw(i int) int { return int(h.seq[i%len(h.seq)]) }

// describe is a short label for logs.
func (r request) describe() string {
	return r.method + " " + strings.SplitN(r.path, "?", 2)[0]
}
