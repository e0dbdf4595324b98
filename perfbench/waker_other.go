//go:build !linux

package main

import "time"

// waker falls back to time.Sleep where no timerfd exists; expect up to
// a millisecond of generator lateness on an idle box.
type waker struct{}

func newWaker() (*waker, error) { return &waker{}, nil }

func (w *waker) sleepUntil(t time.Time) { time.Sleep(time.Until(t)) }

func (w *waker) close() error { return nil }
