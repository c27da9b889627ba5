package main

import "testing"

func TestCalibrationAllocatesNothing(t *testing.T) {
	c := newCalibrator()
	if n := testing.AllocsPerRun(5, c.job); n != 0 {
		t.Fatalf("the calibration job allocates %v times a run", n)
	}
}
