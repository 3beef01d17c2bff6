package pbft

import (
	"reflect"
	"testing"
)

// TestValidateDefaultsMatchDefaultOptions pins DefaultOptions as the one
// table of engine defaults: a validated zero Config carries the same value
// in every numeric Opt field, including any field added later.
func TestValidateDefaultsMatchDefaultOptions(t *testing.T) {
	var cfg Config
	cfg.Validate()
	got, want := reflect.ValueOf(cfg.Opt), reflect.ValueOf(DefaultOptions())
	for i := 0; i < got.NumField(); i++ {
		if got.Field(i).Kind() == reflect.Bool {
			continue
		}
		if g, w := got.Field(i).Interface(), want.Field(i).Interface(); g != w {
			t.Errorf("Opt.%s = %v after Validate, DefaultOptions has %v",
				got.Type().Field(i).Name, g, w)
		}
	}
}
