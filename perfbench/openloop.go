package main

import "time"

// openLoop issues read(k) on a fixed schedule, one call due every period
// from its start, until stop is closed. Each call is timed from when it
// was due, not from when it began, so a stall that delays later calls
// counts against them; lateness records how far behind the schedule each
// call began. read returns a check of what it read, which runs after the
// call is timed. The first error ends the loop and is returned.
type openLoop struct {
	stop    chan struct{}
	done    chan struct{}
	lat     series // ns, due -> end, at the due offset
	late    series // ns, due -> start, at the due offset
	err     error
	started time.Time
}

func startOpenLoop(period time.Duration, read func(k int) (check func() error, err error)) *openLoop {
	l := &openLoop{stop: make(chan struct{}), done: make(chan struct{}), started: time.Now()}
	go func() {
		defer close(l.done)
		timer := time.NewTimer(0)
		defer timer.Stop()
		for k := 0; ; k++ {
			due := l.started.Add(time.Duration(k) * period)
			if wait := time.Until(due); wait > 0 {
				timer.Reset(wait)
				select {
				case <-l.stop:
					return
				case <-timer.C:
				}
			} else {
				select {
				case <-l.stop:
					return
				default:
				}
			}
			begin := time.Now()
			check, err := read(k)
			end := time.Now()
			if err == nil {
				err = check()
			}
			if err != nil {
				l.err = err
				return
			}
			at := due.Sub(l.started)
			l.lat.add(at, float64(end.Sub(due).Nanoseconds()))
			l.late.add(at, float64(begin.Sub(due).Nanoseconds()))
		}
	}()
	return l
}

// finish stops the loop, waits for its goroutine to end and returns the
// first read error.
func (l *openLoop) finish() error {
	close(l.stop)
	<-l.done
	return l.err
}
