// Command designdb inspects and verifies the repository's binary file
// formats: design databases ("H3DB", written by hetero3d/ppac
// -save-design) and evaluation journals ("H3CK", written by ppac
// -checkpoint).
//
// Usage:
//
//	designdb inspect file.db...
//	designdb verify file.db...
//
// inspect prints each file's kind, format version, section framing
// (tag, offset, payload size, CRC), and — for design databases — the
// design, configuration, and save boundary from the META section. For
// evaluation journals it then prints one line per record: the header's
// suite options, "fmax design cells GHz", and "flow design config" with
// the PPAC headline.
//
// verify decodes each design database and re-encodes it, requiring the
// bytes to match exactly: the canonical-encoding invariant every writer
// in the tree maintains and CI enforces over the committed golden
// fixtures. Evaluation journals are verified by a full parse (header
// first, every frame CRC-checked).
package main

import (
	"errors"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/eval"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch cmd, args := os.Args[1], os.Args[2:]; cmd {
	case "inspect":
		err = inspect(args)
	case "verify":
		err = verify(args)
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "designdb: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "designdb:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage:
  designdb inspect file.db...   list sections of design databases / evaluation journals
  designdb verify file.db...    decode + re-encode, require byte-identical canonical form
`)
}

func kindName(magic string) string {
	switch magic {
	case db.MagicDesign:
		return "design database"
	case db.MagicJournal:
		return "evaluation journal"
	}
	return "unknown"
}

func inspect(paths []string) error {
	if len(paths) == 0 {
		return fmt.Errorf("inspect: no files given")
	}
	for i, path := range paths {
		if i > 0 {
			fmt.Println()
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		magic, secs, err := db.List(data)
		// A journal's truncated final frame is a killed append, which
		// resume tolerates; its record listing below notes it.
		if err != nil && !(magic == db.MagicJournal && errors.Is(err, db.ErrTruncated)) {
			return fmt.Errorf("%s: %w", path, err)
		}
		fmt.Printf("%s: %s (magic %q, format v%d, %d bytes, %d sections)\n",
			path, kindName(magic), magic, db.FormatVersion, len(data), len(secs))
		if magic == db.MagicDesign {
			design, config, stage, err := core.DesignFileInfo(data)
			if err != nil {
				return fmt.Errorf("%s: %w", path, err)
			}
			fmt.Printf("  design %s in %s, saved after %q\n", design, config, stage)
		}
		fmt.Printf("  %-6s %10s %10s %10s\n", "tag", "offset", "bytes", "crc32")
		for _, s := range secs {
			fmt.Printf("  %-6s %10d %10d   %08x\n", s.Tag, s.Offset, s.Len, s.CRC)
		}
		if magic == db.MagicJournal {
			lines, err := eval.JournalLines(data)
			if err != nil {
				return fmt.Errorf("%s: %w", path, err)
			}
			fmt.Println("  records:")
			for _, l := range lines {
				fmt.Println("  " + l)
			}
		}
	}
	return nil
}

func verify(paths []string) error {
	if len(paths) == 0 {
		return fmt.Errorf("verify: no files given")
	}
	bad := 0
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		magic, _, err := db.List(data)
		switch {
		case magic == db.MagicJournal:
			err = eval.VerifyJournal(data) // tolerates a truncated final frame, as resume does
		case err == nil:
			err = core.VerifyDesignFile(data)
		}
		if err != nil {
			bad++
			fmt.Printf("%s: FAIL: %v\n", path, err)
			continue
		}
		fmt.Printf("%s: ok (%s, %d bytes)\n", path, kindName(magic), len(data))
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d file(s) failed verification", bad, len(paths))
	}
	return nil
}
