//go:build unix

package store

import "os"

// fsyncDir fsyncs the directory dir, which makes the entries created or
// renamed in it durable.
func fsyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
