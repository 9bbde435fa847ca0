package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"strings"
)

// logOpts carries the -log-level / -log-format flags shared by the
// long-running subcommands (serve, train, eval, fleet).
type logOpts struct {
	level  string
	format string
}

// addLogFlags registers the shared logging flags on fs.
func addLogFlags(fs *flag.FlagSet) *logOpts {
	o := &logOpts{}
	fs.StringVar(&o.level, "log-level", "info", "log verbosity: debug, info, warn, error")
	fs.StringVar(&o.format, "log-format", "text", "log output format: text or json")
	return o
}

// logger builds the log/slog logger the flags describe, writing to w. The
// subcommands pass stderr, so report/artifact output on stdout stays
// machine-parseable.
func (o *logOpts) logger(w io.Writer) (*slog.Logger, error) {
	var lv slog.Level
	switch strings.ToLower(o.level) {
	case "debug":
		lv = slog.LevelDebug
	case "info", "":
		lv = slog.LevelInfo
	case "warn", "warning":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("log: unknown level %q (want debug, info, warn, or error)", o.level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch strings.ToLower(o.format) {
	case "text", "":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	}
	return nil, fmt.Errorf("log: unknown format %q (want text or json)", o.format)
}
