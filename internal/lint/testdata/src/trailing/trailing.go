// Package trailing carries a misspelled //sf:wallclock in a trailing
// comment; loading it must fail.
package trailing

import "time"

type clock struct {
	now func() time.Time //sf:wallclok
}
