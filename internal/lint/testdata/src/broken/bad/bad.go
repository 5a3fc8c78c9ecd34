// Package bad does not compile: the loader must fail on it, naming it.
package bad

func F() int { return "not an int" }
