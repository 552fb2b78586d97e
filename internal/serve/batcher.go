package serve

import (
	"context"
	"errors"
	"time"

	"polyclip"
	"polyclip/internal/acache"
	"polyclip/internal/guard"
	"polyclip/internal/tile"
)

// job is one admitted clip request travelling through the batcher.
type job struct {
	req      *parsedRequest
	ctx      context.Context
	resp     chan jobResult // buffered 1; exactly one send wins
	m        *RequestMetrics
	degraded bool
}

type jobResult struct {
	out polyclip.Polygon
	st  *polyclip.Stats
	m   *RequestMetrics // job-side metrics, shipped back on the response channel
	err error

	tiles []tile.Tile // tile jobs only
	tst   *tile.Stats
}

// respond delivers the job's result exactly once: later sends (a flush
// recovery racing a worker, say) are dropped on the buffered channel.
func (j *job) respond(res jobResult) {
	select {
	case j.resp <- res:
	default:
	}
}

// flushLoop drains the admission queue in batches: the first job opens a
// batch, then up to BatchSize-1 more are coalesced within MaxWait before
// the batch is flushed. The loop exits when the server closes; queued jobs
// left behind are answered with a shed error by their handlers' deadlines.
func (s *Server) flushLoop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.done:
			s.drain()
			return
		case j := <-s.queue:
			s.flush(s.collect(j))
		}
	}
}

// collect coalesces one batch: the opening job plus whatever arrives
// within MaxWait, capped at BatchSize.
func (s *Server) collect(first *job) []*job {
	batch := []*job{first}
	if s.cfg.BatchSize <= 1 {
		return batch
	}
	timer := time.NewTimer(s.cfg.MaxWait)
	defer timer.Stop()
	for len(batch) < s.cfg.BatchSize {
		select {
		case j := <-s.queue:
			batch = append(batch, j)
		case <-timer.C:
			return batch
		case <-s.done:
			return batch
		}
	}
	return batch
}

// flush dispatches one batch. The serve.flush fault site fires before any
// job is dispatched, so an injected panic is absorbed here and every job
// in the batch is answered with a structured error — the batcher never
// loses requests to a fault. Dispatch itself acquires a bounded work slot
// per job; when every slot is busy the flush loop blocks, the queue fills,
// and admission control starts degrading — backpressure by construction.
func (s *Server) flush(batch []*job) {
	s.flushes.Add(1)
	s.batched.Add(int64(len(batch)))
	now := time.Now().UnixNano()
	for _, j := range batch {
		j.m.FlushNs = now
	}
	if err := s.hitFlushSite(); err != nil {
		for _, j := range batch {
			j.respond(jobResult{err: err})
		}
		return
	}
	for _, j := range batch {
		select {
		case s.workSem <- struct{}{}:
		case <-s.done:
			// Draining: answer instead of blocking on a slot forever.
			j.respond(jobResult{err: context.Canceled})
			continue
		case <-j.ctx.Done():
			j.respond(jobResult{err: j.ctx.Err()})
			continue
		}
		go func(j *job) {
			defer func() { <-s.workSem }()
			s.clipOne(j)
		}(j)
	}
}

// hitFlushSite runs the serve.flush fault site with panic capture.
func (s *Server) hitFlushSite() (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = guard.FromPanic("serve.flush", -1, guard.NoPair, r)
		}
	}()
	guard.Hit("serve.flush")
	return nil
}

// drain answers every job still queued at close time.
func (s *Server) drain() {
	for {
		select {
		case j := <-s.queue:
			j.respond(jobResult{err: context.Canceled})
		default:
			return
		}
	}
}

// clipOne runs one clip through the hardened pipeline under the job's
// deadline, retrying recoverable failures with seeded jittered backoff.
// Panics — its own, not the engines' (those are isolated inside ClipCtx) —
// are answered as structured errors.
func (s *Server) clipOne(j *job) {
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	defer func() {
		if r := recover(); r != nil {
			j.respond(jobResult{err: guard.FromPanic("serve.clip", -1, guard.NoPair, r)})
		}
	}()
	if j.req.tileSpec != nil {
		s.cutTiles(j)
		return
	}

	opt := polyclip.Options{
		Algorithm: j.req.algo,
		Rule:      j.req.rule,
		Threads:   s.cfg.Threads,
		Degraded:  j.degraded,
	}
	var last jobResult
	for attempt := 0; ; attempt++ {
		out, st, err := polyclip.ClipCtx(j.ctx, j.req.subject, j.req.clip, j.req.op, opt)
		j.m.absorbStats(st)
		last = jobResult{out: out, st: st, err: err}
		if err == nil || !s.retryable(err, j.ctx) || attempt >= s.cfg.MaxRetries {
			break
		}
		j.m.ServeRetries++
		s.retries.Add(1)
		if !s.backoff(j.ctx, attempt) {
			break
		}
	}
	last.m = j.m
	if last.st != nil {
		s.recovered.Add(int64(last.st.Resilience.Recovered))
		s.stageTimeouts.Add(int64(last.st.Resilience.StageTimeouts))
		s.auditFailures.Add(int64(last.st.Resilience.InvariantFailures))
		if n := len(last.st.Resilience.Attempts) - 1; n > 0 {
			s.fallbackSteps.Add(int64(n))
		}
	}
	j.respond(last)
}

// cutTiles serves one tile-cutting job: the prepared pyramid cut through
// the shared prepare cache (so a layer cut repeatedly canonicalizes
// once). Degraded jobs run single-threaded, like degraded clips. tile.Cut
// has no internal panic sites of its own beyond prepared's rescue route, so
// clipOne's recover is the outer guard.
func (s *Server) cutTiles(j *job) {
	opt := tile.Options{
		Rule:    j.req.rule,
		Threads: s.cfg.Threads,
		Naive:   j.req.tileNaive,
		Cache:   acache.Shared(),
	}
	if j.degraded {
		opt.Threads = 1
	}
	tiles, st, err := tile.Cut(j.ctx, j.req.subject, *j.req.tileSpec, opt)
	j.respond(jobResult{tiles: tiles, tst: &st, m: j.m, err: err})
}

// retryable reports whether the serve layer should retry: a structured
// ClipError from a transient fault, with budget left on the clock. Typed
// client errors and context expiry are final.
func (s *Server) retryable(err error, ctx context.Context) bool {
	if ctx.Err() != nil {
		return false
	}
	if errors.Is(err, polyclip.ErrInvalidInput) || errors.Is(err, polyclip.ErrUnsupported) {
		return false
	}
	var ce *polyclip.ClipError
	return errors.As(err, &ce)
}

// backoff sleeps the jittered exponential delay for the attempt, returning
// false when the context expires first.
func (s *Server) backoff(ctx context.Context, attempt int) bool {
	if attempt > 16 {
		attempt = 16
	}
	d := s.cfg.RetryBase << attempt
	s.rngMu.Lock()
	jittered := d/2 + time.Duration(s.rng.Int63n(int64(d/2)+1))
	s.rngMu.Unlock()
	t := time.NewTimer(jittered)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
