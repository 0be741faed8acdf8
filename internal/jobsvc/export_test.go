package jobsvc

import "time"

// WithCaps returns cfg with the admission caps and the backoff floor that
// only tests set: maxQueue jobs queued service-wide, maxQueued queued and
// maxRunning running per tenant, and retryAfter as the 429 hint's floor.
func WithCaps(cfg Config, maxQueue, maxQueued, maxRunning int, retryAfter time.Duration) Config {
	cfg.maxQueue = maxQueue
	cfg.quota = quota{maxQueued: maxQueued, maxRunning: maxRunning}
	cfg.retryAfter = retryAfter
	return cfg
}
