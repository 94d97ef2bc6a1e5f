package taskmgr

// FairShareScopes reports how many scopes the admission scheduler keeps
// fair-share history for.
func (m *Manager) FairShareScopes() int {
	m.sched.mu.Lock()
	defer m.sched.mu.Unlock()
	return len(m.sched.admitted)
}
