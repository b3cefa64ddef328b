//go:build race

package client

func init() { raceEnabled = true }
