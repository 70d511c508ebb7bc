package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/engine"
	"repro/internal/exec"
)

// Error codes in the wire taxonomy. Every error response is
//
//	{"error": {"code": "<code>", "message": "..."}}
//
// with the HTTP status implied by the code, so clients dispatch on the
// code string and never need to parse messages.
const (
	CodeParseError        = "parse_error"        // 400: SQL failed to parse
	CodeInvalidRequest    = "invalid_request"    // 400: malformed JSON, bad params, wrong arity/type
	CodeUnknownSession    = "unknown_session"    // 404: no such (or expired) session
	CodeUnknownStatement  = "unknown_statement"  // 404: no such prepared statement
	CodeAdmissionRejected = "admission_rejected" // 429: tenant's admission queue is full
	CodeQueueTimeout      = "queue_timeout"      // 429: queued but no slot freed within QueueWait
	CodeQueryFailed       = "query_failed"       // 400: statement admitted but failed in execution
	CodeTimeout           = "timeout"            // 408: statement exceeded its deadline
	CodeDBClosed          = "db_closed"          // 503: server or database shutting down
	CodeInternal          = "internal"           // 500: recovered panic or unclassified failure
)

// apiError is a typed wire error: a status, a stable code, and a
// human-readable message.
type apiError struct {
	Status  int    `json:"-"`
	Code    string `json:"code"`
	Message string `json:"message"`
}

func (e *apiError) Error() string { return fmt.Sprintf("%s: %s", e.Code, e.Message) }

func errorf(status int, code, format string, args ...any) *apiError {
	return &apiError{Status: status, Code: code, Message: fmt.Sprintf(format, args...)}
}

// classify maps an engine/context error onto the wire taxonomy.
// Parse errors come from the sql package before any planning; statement
// deadline expiry surfaces bare from the engine by contract.
func classify(err error) *apiError {
	var ae *apiError
	switch {
	case errors.As(err, &ae):
		return ae
	case errors.Is(err, engine.ErrClosed):
		return errorf(http.StatusServiceUnavailable, CodeDBClosed, "%v", err)
	case errors.Is(err, context.DeadlineExceeded):
		return errorf(http.StatusRequestTimeout, CodeTimeout, "statement timed out")
	case errors.Is(err, context.Canceled):
		return errorf(http.StatusRequestTimeout, CodeTimeout, "statement canceled")
	case errors.Is(err, exec.ErrBudgetExceeded):
		return errorf(http.StatusBadRequest, CodeQueryFailed, "%v", err)
	default:
		return errorf(http.StatusBadRequest, CodeQueryFailed, "%v", err)
	}
}

// annotateError reports a rejected annotation as the client's fault
// (400 invalid_request) unless the database is closed, which classify
// answers 503 db_closed as for every other handler.
func annotateError(err error, format string, args ...any) error {
	if errors.Is(err, engine.ErrClosed) {
		return err
	}
	return errorf(http.StatusBadRequest, CodeInvalidRequest, format, args...)
}

// writeError renders an apiError (or classifies a bare error first).
func writeError(w http.ResponseWriter, err error) {
	ae := classify(err)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(ae.Status)
	_ = json.NewEncoder(w).Encode(map[string]*apiError{"error": ae})
}

// writeJSON renders a success payload, marshaling before the status
// line so a payload encoding/json refuses is a typed 500, not an empty 200.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		writeError(w, errorf(http.StatusInternalServerError, CodeInternal, "encoding response: %v", err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(append(body, '\n')) // a failed write means the client is gone
}
