// Package misspelled carries a misspelled //sf:hotpath on a function
// that formats; loading it must fail rather than skip the check.
package misspelled

import "fmt"

//sf:hotpth
func format(x int) string {
	return fmt.Sprint(x)
}
