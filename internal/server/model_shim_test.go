package server

// What the lifecycle model needs from the server beyond its HTTP surface:
// the only file of the model that knows how a cursor is guarded.

// newModelServer builds a server on the schedule's clock and timers. With
// an hour-long TTL the janitor (TTL/4 of real time) never ticks on its own;
// schedules call sweep by hand.
func newModelServer(cfg Config, clk *fakeClock) *Server {
	return newServer(cfg, clk.Now, clk.After)
}

// interrupted reports whether someone is retiring the cursor.
func interrupted(c *cursor) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.retiring != ""
}
