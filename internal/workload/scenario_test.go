package workload

import (
	"fmt"
	"testing"

	"vmtherm/internal/vmm"
)

func TestGenOptionsValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*GenOptions)
		ok     bool
	}{
		{"default", func(*GenOptions) {}, true},
		{"zero min", func(o *GenOptions) { o.VMCountMin = 0 }, false},
		{"inverted range", func(o *GenOptions) { o.VMCountMax = 1 }, false},
		{"no fans", func(o *GenOptions) { o.FanChoices = nil }, false},
		{"negative fan", func(o *GenOptions) { o.FanChoices = []int{-1} }, false},
		{"inverted ambient", func(o *GenOptions) { o.AmbientMinC, o.AmbientMaxC = 30, 20 }, false},
		{"bad host", func(o *GenOptions) { o.Host.Cores = 0 }, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			o := DefaultGenOptions()
			tt.mutate(&o)
			err := o.Validate()
			if (err == nil) != tt.ok {
				t.Errorf("Validate = %v, ok %v", err, tt.ok)
			}
		})
	}
}

func TestGenerateCaseWithinBounds(t *testing.T) {
	opts := DefaultGenOptions()
	for i := 0; i < 50; i++ {
		c, err := GenerateCase(opts, int64(i), fmt.Sprintf("case%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if len(c.VMs) < 1 || len(c.VMs) > opts.VMCountMax {
			t.Errorf("case %d has %d VMs", i, len(c.VMs))
		}
		if c.AmbientC < opts.AmbientMinC || c.AmbientC > opts.AmbientMaxC {
			t.Errorf("ambient %v out of range", c.AmbientC)
		}
		fanOK := false
		for _, f := range opts.FanChoices {
			if c.FanCount == f {
				fanOK = true
			}
		}
		if !fanOK {
			t.Errorf("fan count %d not among choices", c.FanCount)
		}
		for _, vm := range c.VMs {
			if len(vm.Tasks) < 1 || len(vm.Tasks) > tasksPerVMMax {
				t.Errorf("vm %s has %d tasks", vm.ID, len(vm.Tasks))
			}
			for _, ts := range vm.Tasks {
				if err := ts.Task.Validate(); err != nil {
					t.Errorf("invalid generated task: %v", err)
				}
				if ts.Profile == nil {
					t.Errorf("task %s missing profile", ts.Task.ID)
				}
			}
		}
	}
}

func TestGeneratedCasesAlwaysAdmissible(t *testing.T) {
	opts := DefaultGenOptions()
	for i := 0; i < 50; i++ {
		c, err := GenerateCase(opts, 7, fmt.Sprintf("adm%d", i))
		if err != nil {
			t.Fatal(err)
		}
		host, err := vmm.NewHost("h", c.Host)
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range c.VMs {
			vm, err := vmm.NewVM(spec.ID, spec.Config)
			if err != nil {
				t.Fatal(err)
			}
			if err := host.Place(vm); err != nil {
				t.Fatalf("case %d not admissible: %v", i, err)
			}
		}
	}
}

func TestGenerateCaseDeterministic(t *testing.T) {
	opts := DefaultGenOptions()
	a, err := GenerateCase(opts, 42, "det")
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateCase(opts, 42, "det")
	if err != nil {
		t.Fatal(err)
	}
	if a.FanCount != b.FanCount || a.AmbientC != b.AmbientC || len(a.VMs) != len(b.VMs) {
		t.Fatal("same seed+name produced different cases")
	}
	for i := range a.VMs {
		if a.VMs[i].ID != b.VMs[i].ID || len(a.VMs[i].Tasks) != len(b.VMs[i].Tasks) {
			t.Fatal("vm specs differ")
		}
		for j := range a.VMs[i].Tasks {
			ta, tb := a.VMs[i].Tasks[j].Task, b.VMs[i].Tasks[j].Task
			if ta != tb {
				t.Fatalf("task differs: %+v vs %+v", ta, tb)
			}
		}
	}
	c, err := GenerateCase(opts, 43, "det")
	if err != nil {
		t.Fatal(err)
	}
	if a.AmbientC == c.AmbientC {
		t.Error("different seeds should differ (ambient)")
	}
}

func TestGenerateCases(t *testing.T) {
	cases, err := GenerateCases(DefaultGenOptions(), 1, "batch", 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) != 20 {
		t.Fatalf("got %d cases", len(cases))
	}
	names := map[string]bool{}
	for _, c := range cases {
		if names[c.Name] {
			t.Errorf("duplicate name %s", c.Name)
		}
		names[c.Name] = true
	}
	if _, err := GenerateCases(DefaultGenOptions(), 1, "x", 0); err == nil {
		t.Error("zero cases should fail")
	}
}

func TestGenerateCaseInvalidOpts(t *testing.T) {
	opts := DefaultGenOptions()
	opts.VMCountMin = 0
	if _, err := GenerateCase(opts, 1, "bad"); err == nil {
		t.Error("invalid opts should fail")
	}
}

func TestDynamicCasesHaveTimeVaryingProfiles(t *testing.T) {
	opts := DefaultGenOptions()
	opts.Dynamic = true
	varying := 0
	for i := 0; i < 30; i++ {
		c, err := GenerateCase(opts, int64(i), fmt.Sprintf("dyn%d", i))
		if err != nil {
			t.Fatal(err)
		}
		for _, vm := range c.VMs {
			for _, ts := range vm.Tasks {
				if ts.Profile.At(0) != ts.Profile.At(777) {
					varying++
				}
			}
		}
	}
	if varying == 0 {
		t.Error("dynamic generation never produced a time-varying profile")
	}
}

func TestNumTasks(t *testing.T) {
	c := Case{VMs: []VMSpec{
		{Tasks: make([]TaskSpec, 2)},
		{Tasks: make([]TaskSpec, 3)},
	}}
	if c.NumTasks() != 5 {
		t.Errorf("NumTasks = %d, want 5", c.NumTasks())
	}
}
