// httpd-attack demonstrates the paper's GHTTPD non-control-data attack:
// a request overflows the Log() stack buffer and rewrites the URL
// *pointer* — after the "/.." path-traversal policy check has passed — to
// an illegitimate URL later in the same request. Pointer taintedness
// catches the tainted pointer at its first dereference (a load-byte in
// serve()); the control-data baseline serves /bin/sh.
package main

import (
	"fmt"
	"log"

	"repro/internal/attack"
	"repro/internal/taint"
)

func main() {
	fmt.Println("=== GHTTPD URL-pointer overwrite (paper Section 5.1.2) ===")
	fmt.Println()

	detected, err := attack.GHTTPDNonControl(attack.Options{Policy: taint.PolicyPointerTaintedness})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("pointer taintedness:", detected)
	if !detected.Detected {
		log.Fatal("expected detection")
	}

	missed, err := attack.GHTTPDNonControl(attack.Options{Policy: taint.PolicyControlDataOnly})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("control-data only:  ", missed)
	if !missed.Compromised {
		log.Fatal("expected the baseline to be bypassed")
	}

	fmt.Println()
	fmt.Println("=== the classic long-URL stack smash, for contrast ===")
	control, err := attack.GHTTPDControl(attack.Options{Policy: taint.PolicyControlDataOnly})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("control-data only:  ", control)
}
