// Package wallclock is the firing fixture for the wallclock analyzer.
package wallclock

import (
	"math/rand"
	"time"
)

var sink int64

func badTime() {
	t0 := time.Now()                               // want "reads the wall clock"
	sink += time.Since(t0).Nanoseconds()           // want "reads the wall clock"
	sink += int64(time.Until(t0.Add(time.Second))) // want "reads the wall clock"
}

func badRand() {
	sink += int64(rand.Intn(10))     // want "math/rand is forbidden"
	sink += rand.Int63()             // want "math/rand is forbidden"
	r := rand.New(rand.NewSource(1)) // want "math/rand is forbidden" "math/rand is forbidden"
	sink += r.Int63()
}
