package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/service"
)

type phase int

const (
	phaseWarm   phase = iota // setup warm set, closed loop
	phaseLead                // open-loop lead-in, not measured
	phaseWindow              // the measured window
)

// record is what the harness observed for one request. Times are offsets
// from the run's epoch; latency is done-due, so time a request spent waiting
// for a free connection counts against the server that kept it busy.
type record struct {
	req     *request
	phase   phase
	due     time.Duration
	send    time.Duration
	done    time.Duration
	lag     time.Duration // how late the dispatcher released the request
	status  int
	body    []byte
	err     error
	expired bool // its deadline budget ran out before a connection was free
}

func (r *record) latency() time.Duration { return r.done - r.due }

// conns is the generator's connection count: the machine's two vCPUs.
const conns = 2

// generator sends requests to one server over at most conns keep-alive
// connections: one dispatcher releases requests at their due times into a
// FIFO, and one sender per connection takes them in order.
type generator struct {
	client *http.Client
	base   string
	epoch  time.Time
	tr     *tracer // nil when untraced

	traceNs atomic.Int64 // time senders spent recording spans
}

func newClient() *http.Client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &http.Client{Transport: tr, Timeout: 10 * time.Second}
}

func (g *generator) now() time.Duration { return time.Since(g.epoch) }

// phaseSlack bounds how long a phase may outlast its schedule: requests
// still unanswered then fail, so a hung server cannot hold the run.
const phaseSlack = 30 * time.Second

// closedLoop sends the requests one after another, each when the previous
// one has been answered.
func (g *generator) closedLoop(sched []request, ph phase) []record {
	ctx, cancel := context.WithTimeout(context.Background(), phaseSlack)
	defer cancel()
	recs := make([]record, len(sched))
	for i := range sched {
		now := g.now()
		recs[i] = record{req: &sched[i], phase: ph, due: now}
		g.send(ctx, &recs[i], 0, -1)
	}
	return recs
}

// openLoop releases each request at its due time regardless of how the
// server is keeping up. firstID is the run-wide id of sched[0], which links
// the request's spans.
func (g *generator) openLoop(sched []request, ph phase, budget time.Duration, firstID int) []record {
	recs := make([]record, len(sched))
	start := g.now() + time.Millisecond
	var length time.Duration
	if len(sched) > 0 {
		length = sched[len(sched)-1].due
	}
	ctx, cancel := context.WithDeadline(context.Background(), g.epoch.Add(start+length+phaseSlack))
	defer cancel()
	// One slot per scheduled request, so the dispatcher never blocks on a
	// busy sender and its timing stays independent of the server.
	queue := make(chan int, len(sched))
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				g.send(ctx, &recs[i], budget, firstID+i)
			}
		}()
	}
	for i := range sched {
		due := start + sched[i].due
		if wait := due - g.now(); wait > 0 {
			sleep(wait)
		}
		recs[i] = record{req: &sched[i], phase: ph, due: due, lag: g.now() - due}
		queue <- i
	}
	close(queue)
	wg.Wait()
	return recs
}

// sleep waits d on the kernel's high-resolution timer. time.Sleep wakes
// through the runtime's network poller, whose timeout has millisecond
// resolution: at GOMAXPROCS=1 on an idle 2-vCPU VM it overshot by 0.55 ms at
// the median and 1.1 ms at p99, half the 2 ms lag a valid run allows, where
// nanosleep overshot by 0.09 ms and 0.34 ms. The dispatcher's thread blocks
// in the call; the runtime hands the senders another thread meanwhile.
func sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// send performs one request. With a budget, the request carries whatever is
// left of it as X-Deadline-Ms, and is dropped unsent when nothing is left.
func (g *generator) send(ctx context.Context, rec *record, budget time.Duration, id int) {
	r := rec.req
	rec.send = g.now()
	hreq, err := http.NewRequestWithContext(ctx, r.method, g.base+r.path, bytes.NewReader(r.body))
	if err != nil {
		rec.err, rec.done = err, g.now()
		return
	}
	if budget > 0 {
		left := budget - (rec.send - rec.due)
		if left < time.Millisecond {
			rec.expired, rec.done = true, rec.send
			return
		}
		hreq.Header.Set(service.DeadlineHeader, strconv.FormatInt(left.Milliseconds(), 10))
	}
	resp, err := g.client.Do(hreq)
	if err == nil {
		rec.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		rec.status = resp.StatusCode
	}
	rec.err, rec.done = err, g.now()
	if g.tr != nil && id >= 0 {
		t0 := time.Now()
		root := g.tr.add(span{Name: "client.request", Req: id, Start: int64(rec.due), End: int64(rec.done)})
		g.tr.add(span{Name: "client.wait", Parent: root, Req: id, Start: int64(rec.due), End: int64(rec.send)})
		g.tr.add(span{Name: "client.roundtrip", Parent: root, Req: id, Start: int64(rec.send), End: int64(rec.done)})
		g.traceNs.Add(int64(time.Since(t0)))
	}
}
