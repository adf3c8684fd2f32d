package main

import (
	"reflect"
	"testing"
	"time"
)

// TestChurnScheduleSeeded checks that the churn arrival schedule is a
// function of the seed alone: equal seeds give equal schedules, another
// seed gives another, and both classes and roughly the nominal rate
// appear.
func TestChurnScheduleSeeded(t *testing.T) {
	const span = 4 * time.Second
	a := churnSchedule(7, churnRate, span)
	b := churnSchedule(7, churnRate, span)
	c := churnSchedule(8, churnRate, span)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	want := churnRate * span.Seconds()
	if n := float64(len(a)); n < 0.8*want || n > 1.2*want {
		t.Fatalf("%d arrivals in %v, want about %.0f", len(a), span, want)
	}
	var scav int
	for i, x := range a {
		if x.at < 0 || x.at >= span || (i > 0 && x.at < a[i-1].at) {
			t.Fatalf("arrival %d at %v out of order or span", i, x.at)
		}
		if x.scav {
			scav++
		}
	}
	if scav == 0 || scav == len(a) {
		t.Fatalf("%d of %d arrivals are scavengers", scav, len(a))
	}
}
