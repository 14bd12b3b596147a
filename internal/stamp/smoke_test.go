package stamp

import (
	"testing"

	"asfstack"
)

func TestSmokeAllApps(t *testing.T) {
	for _, app := range Apps {
		for _, rt := range []string{"LLB-256", "STM"} {
			r, err := Run(Config{Options: asfstack.Options{Runtime: rt, Cores: 4}, App: app, Scale: 0.25})
			if err != nil {
				t.Fatalf("%s/%s: %v", app, rt, err)
			}
			t.Logf("%-14s %-8s %8.3f ms commits=%d serial=%d aborts=%d stm=%d",
				app, rt, r.Millis(), r.Stats.Commits, r.Stats.Serial,
				r.Stats.TotalAborts(), r.Stats.STMAborts)
		}
	}
}
