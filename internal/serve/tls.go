package serve

import (
	"context"
	"crypto/tls"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// TLSConfig carries the optional TLS serving material. Both paths must be
// set together: a cert without its key (or vice versa) is a deployment
// mistake worth failing fast on rather than silently serving plaintext.
type TLSConfig struct {
	// CertFile is the PEM server certificate (leaf first, then any
	// intermediates).
	CertFile string
	// KeyFile is the PEM private key matching CertFile.
	KeyFile string
}

// Enabled reports whether TLS serving was requested at all.
func (c TLSConfig) Enabled() bool { return c.CertFile != "" || c.KeyFile != "" }

// Validate checks the configuration without binding a socket: both paths
// present, both files readable, and the pair parseable as a matching
// certificate/key. A nil error with Enabled() false means plaintext.
func (c TLSConfig) Validate() error {
	if !c.Enabled() {
		return nil
	}
	if c.CertFile == "" {
		return fmt.Errorf("serve: -tls-key given without -tls-cert")
	}
	if c.KeyFile == "" {
		return fmt.Errorf("serve: -tls-cert given without -tls-key")
	}
	for _, f := range []string{c.CertFile, c.KeyFile} {
		if _, err := os.Stat(f); err != nil {
			return fmt.Errorf("serve: tls material: %w", err)
		}
	}
	if _, err := tls.LoadX509KeyPair(c.CertFile, c.KeyFile); err != nil {
		return fmt.Errorf("serve: tls key pair: %w", err)
	}
	return nil
}

// NewLogger builds a daemon's stderr logger in the -log-format encoding.
func NewLogger(format string) (*slog.Logger, error) {
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil
	}
	return nil, fmt.Errorf("unknown -log-format %q (want text or json)", format)
}

// Fatal logs err under msg and exits the process with status 1.
func Fatal(logger *slog.Logger, msg string, err error) {
	logger.Error(msg, "error", err)
	os.Exit(1)
}

// ListenAndServe serves h on addr — over TLS when c is enabled — until
// SIGTERM or SIGINT. It then stops the listener, giving in-flight
// requests 30 s to finish, runs stop (nil for none) and returns; any
// other way the server ends is the error returned.
func (c TLSConfig) ListenAndServe(addr string, h http.Handler, logger *slog.Logger, stop func()) error {
	httpSrv := &http.Server{Addr: addr, Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		sigc := make(chan os.Signal, 1)
		signal.Notify(sigc, syscall.SIGTERM, os.Interrupt)
		sig := <-sigc
		logger.Info("shutting down", "signal", sig.String())
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			logger.Error("listener shutdown", "error", err)
		}
		if stop != nil {
			stop()
		}
	}()
	var err error
	if c.Enabled() {
		err = httpSrv.ListenAndServeTLS(c.CertFile, c.KeyFile)
	} else {
		err = httpSrv.ListenAndServe()
	}
	if err != http.ErrServerClosed {
		return err
	}
	<-done
	return nil
}
