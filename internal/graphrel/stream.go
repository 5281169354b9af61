package graphrel

import "fmt"

// RowLimitError reports a read wider than the caller's row cap: its one
// producer is the session's window guard (session.SetMaxRows), which
// refuses a window wider than the cap before reading a row.
type RowLimitError struct {
	// Limit is the row cap that was exceeded.
	Limit int
	// Rows is the width of the refused read (0 when the caller does
	// not know it).
	Rows int
}

func (e *RowLimitError) Error() string {
	if e.Rows > 0 {
		return fmt.Sprintf("graphrel: result exceeds %d rows (observed %d)", e.Limit, e.Rows)
	}
	return fmt.Sprintf("graphrel: result exceeds %d rows", e.Limit)
}

// LimitExceeded builds the row-cap error the session's window guard
// returns and the server maps to its 413.
func LimitExceeded(limit, rows int) *RowLimitError {
	return &RowLimitError{Limit: limit, Rows: rows}
}
