package server

import "time"

// What the lifecycle model needs from the server beyond its HTTP surface:
// the only file of the model that knows how a cursor is guarded.

// newModelServer builds a server on the schedule's clock whose janitor
// never ticks on its own.
func newModelServer(cfg Config, clk *fakeClock) *Server {
	cfg.SweepInterval = time.Hour
	s := NewServer(cfg)
	s.now = clk.Now
	return s
}

// interrupted reports whether someone has hard-canceled the cursor.
func interrupted(c *cursor) bool { return c.ctx.Err() != nil }

// fireWall cancels every cursor whose wall budget has run out at now: the
// budget is a context deadline on the real clock here, so the schedule's
// clock has to be told.
func fireWall(s *Server, now time.Time) {
	for _, c := range s.table.snapshot() {
		if !now.Before(c.created.Add(s.cfg.MaxCursorWall)) {
			c.hardCancel(errCursorWallOver)
		}
	}
}
