//! Catalog and session storage shared by the worker threads.
//!
//! Two id-keyed maps behind `RwLock`s: uploaded catalogs (a universe plus
//! its *shared* name-interned similarity cache — built once per upload and
//! reused by every session and re-solve over that catalog) and live
//! sessions. Each session sits behind its own `Mutex`, which is the
//! per-session serialization guarantee: two solves on one session queue up,
//! solves on different sessions run in parallel.
//!
//! Capacity is bounded: at most `max_sessions` live sessions, with an
//! idle-eviction sweep (sessions untouched for `idle_ttl`) making room
//! before new creations are refused.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use mube_core::session::Session;
use mube_core::source::Universe;
use mube_match::SimilarityCache;

/// An uploaded catalog: the universe and its shared similarity cache.
pub struct CatalogEntry {
    /// The parsed universe.
    pub universe: Arc<Universe>,
    /// Name-interned pairwise similarity cache, built once at upload time
    /// and shared (via [`mube_match::ClusterMatcher::with_cache`]) by every
    /// session over this catalog.
    pub cache: Arc<SimilarityCache>,
}

/// One live session.
pub struct SessionEntry {
    /// The session id.
    pub id: u64,
    /// The catalog the session runs over.
    pub catalog_id: u64,
    /// The session itself. Lock order: never hold two session locks at
    /// once (handlers only ever touch one session).
    pub session: Mutex<Session>,
    /// Last time a handler touched the session (for idle eviction).
    last_used: Mutex<Instant>,
}

impl SessionEntry {
    /// Marks the session as just-used.
    pub fn touch(&self) {
        *self.last_used.lock().expect("last_used lock poisoned") = Instant::now();
    }

    /// Time since the session was last touched.
    pub fn idle_for(&self) -> Duration {
        self.last_used
            .lock()
            .expect("last_used lock poisoned")
            .elapsed()
    }
}

/// Why a session could not be created.
#[derive(Debug, PartialEq, Eq)]
pub enum StoreError {
    /// The referenced catalog id does not exist.
    UnknownCatalog,
    /// The server is at `max_sessions` and nothing was idle enough to
    /// evict.
    TooManySessions {
        /// The configured cap.
        limit: usize,
    },
}

/// The shared store.
pub struct Store {
    catalogs: RwLock<HashMap<u64, Arc<CatalogEntry>>>,
    sessions: RwLock<HashMap<u64, Arc<SessionEntry>>>,
    next_catalog_id: AtomicU64,
    next_session_id: AtomicU64,
    max_sessions: usize,
    idle_ttl: Duration,
}

impl Store {
    /// An empty store with the given capacity policy.
    pub fn new(max_sessions: usize, idle_ttl: Duration) -> Self {
        Store {
            catalogs: RwLock::new(HashMap::new()),
            sessions: RwLock::new(HashMap::new()),
            next_catalog_id: AtomicU64::new(1),
            next_session_id: AtomicU64::new(1),
            max_sessions: max_sessions.max(1),
            idle_ttl,
        }
    }

    /// Registers an uploaded catalog, returning its id.
    pub fn insert_catalog(&self, universe: Arc<Universe>, cache: Arc<SimilarityCache>) -> u64 {
        // ordering: id allocator; fetch_add's atomicity guarantees
        // uniqueness, and the entry itself publishes via the RwLock.
        let id = self.next_catalog_id.fetch_add(1, Ordering::Relaxed);
        self.catalogs
            .write()
            .expect("catalogs lock poisoned")
            .insert(id, Arc::new(CatalogEntry { universe, cache }));
        id
    }

    /// Registers a catalog under a *specific* id — the journal-replay path,
    /// which must reproduce the ids the original run handed out. Bumps the
    /// id counter past `id` so post-replay uploads never collide.
    pub fn insert_catalog_with_id(
        &self,
        id: u64,
        universe: Arc<Universe>,
        cache: Arc<SimilarityCache>,
    ) {
        // ordering: raises the id floor during replay; only the atomic
        // max matters, not inter-thread ordering.
        self.next_catalog_id.fetch_max(id + 1, Ordering::Relaxed);
        self.catalogs
            .write()
            .expect("catalogs lock poisoned")
            .insert(id, Arc::new(CatalogEntry { universe, cache }));
    }

    /// Looks up a catalog.
    pub fn catalog(&self, id: u64) -> Option<Arc<CatalogEntry>> {
        self.catalogs
            .read()
            .expect("catalogs lock poisoned")
            .get(&id)
            .cloned()
    }

    /// Number of registered catalogs.
    pub fn catalogs_len(&self) -> usize {
        self.catalogs.read().expect("catalogs lock poisoned").len()
    }

    /// Inserts a new session over `catalog_id`. At capacity, idle sessions
    /// are evicted first; if none qualify the creation is refused. Returns
    /// the new session id and the ids evicted to make room (so the caller
    /// can journal the deletions).
    pub fn insert_session(
        &self,
        catalog_id: u64,
        session: Session,
    ) -> Result<(u64, Vec<u64>), StoreError> {
        if self.catalog(catalog_id).is_none() {
            return Err(StoreError::UnknownCatalog);
        }
        let mut sessions = self.sessions.write().expect("sessions lock poisoned");
        let mut evicted = Vec::new();
        if sessions.len() >= self.max_sessions {
            let idle: Vec<u64> = sessions
                .iter()
                .filter(|(_, e)| Self::evictable(e, self.idle_ttl))
                .map(|(&id, _)| id)
                .collect();
            for id in idle {
                sessions.remove(&id);
                evicted.push(id);
                if sessions.len() < self.max_sessions {
                    break;
                }
            }
            if sessions.len() >= self.max_sessions {
                return Err(StoreError::TooManySessions {
                    limit: self.max_sessions,
                });
            }
        }
        // ordering: id allocator, same contract as `insert_catalog`.
        let id = self.next_session_id.fetch_add(1, Ordering::Relaxed);
        sessions.insert(
            id,
            Arc::new(SessionEntry {
                id,
                catalog_id,
                session: Mutex::new(session),
                last_used: Mutex::new(Instant::now()),
            }),
        );
        Ok((id, evicted))
    }

    /// Inserts a session under a *specific* id — the journal-replay path.
    /// Skips capacity checks (replay precedes traffic and the journal never
    /// holds more live sessions than the cap allowed) and bumps the id
    /// counter past `id`.
    pub fn insert_session_with_id(
        &self,
        id: u64,
        catalog_id: u64,
        session: Session,
    ) -> Result<(), StoreError> {
        if self.catalog(catalog_id).is_none() {
            return Err(StoreError::UnknownCatalog);
        }
        // ordering: replay-time id floor, same contract as
        // `insert_catalog_with_id`.
        self.next_session_id.fetch_max(id + 1, Ordering::Relaxed);
        self.sessions
            .write()
            .expect("sessions lock poisoned")
            .insert(
                id,
                Arc::new(SessionEntry {
                    id,
                    catalog_id,
                    session: Mutex::new(session),
                    last_used: Mutex::new(Instant::now()),
                }),
            );
        Ok(())
    }

    /// Whether a session may be evicted: idle past the TTL *and* not
    /// currently locked by an in-flight handler. The contention probe
    /// closes a race where a long solve straddles the TTL — the session
    /// looked idle (handlers touch on lookup, before the solve), got
    /// evicted mid-solve, and the client's follow-up 404ed even though its
    /// request had succeeded. A held mutex means someone is working; skip.
    fn evictable(entry: &SessionEntry, ttl: Duration) -> bool {
        entry.idle_for() >= ttl && entry.session.try_lock().is_ok()
    }

    /// Looks up a session (does not touch it).
    pub fn session(&self, id: u64) -> Option<Arc<SessionEntry>> {
        self.sessions
            .read()
            .expect("sessions lock poisoned")
            .get(&id)
            .cloned()
    }

    /// Removes a session, returning whether it existed.
    pub fn remove_session(&self, id: u64) -> bool {
        self.sessions
            .write()
            .expect("sessions lock poisoned")
            .remove(&id)
            .is_some()
    }

    /// Number of live sessions.
    pub fn sessions_len(&self) -> usize {
        self.sessions.read().expect("sessions lock poisoned").len()
    }

    /// Drops every catalog and session. The replication follower calls
    /// this on a full-resync RESET before replaying the leader's complete
    /// frame set; id counters stay monotone so ids handed out after a
    /// resync never collide with journaled ones.
    pub fn clear(&self) {
        self.catalogs
            .write()
            .expect("catalogs lock poisoned")
            .clear();
        self.sessions
            .write()
            .expect("sessions lock poisoned")
            .clear();
    }

    /// Evicts every session idle for at least the TTL (and not held by an
    /// in-flight handler — see `Store::evictable`), returning the evicted
    /// ids. Called opportunistically by the server.
    pub fn sweep_idle(&self) -> Vec<u64> {
        let mut sessions = self.sessions.write().expect("sessions lock poisoned");
        let idle: Vec<u64> = sessions
            .iter()
            .filter(|(_, e)| Self::evictable(e, self.idle_ttl))
            .map(|(&id, _)| id)
            .collect();
        for &id in &idle {
            sessions.remove(&id);
        }
        idle
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mube_core::constraints::Constraints;
    use mube_core::matchop::IdentityMatcher;
    use mube_core::problem::Problem;
    use mube_core::qefs::data_only_qefs;
    use mube_core::schema::Schema;
    use mube_core::source::SourceSpec;
    use mube_match::JaccardNGram;
    use mube_opt::TabuSearch;

    fn universe() -> Arc<Universe> {
        let mut b = Universe::builder();
        for i in 0..4u32 {
            b.add_source(
                SourceSpec::new(format!("s{i}"), Schema::new(["x", "y"]))
                    .cardinality(100 + u64::from(i)),
            );
        }
        Arc::new(b.build().unwrap())
    }

    fn session(u: &Arc<Universe>) -> Session {
        let problem = Problem::new(
            Arc::clone(u),
            Arc::new(IdentityMatcher),
            data_only_qefs(),
            Constraints::with_max_sources(2).beta(1),
        )
        .unwrap();
        Session::new(problem, Box::new(TabuSearch::default()), 1)
    }

    fn store_with_catalog(max: usize, ttl: Duration) -> (Store, u64, Arc<Universe>) {
        let store = Store::new(max, ttl);
        let u = universe();
        let cache = Arc::new(SimilarityCache::build(&u, &JaccardNGram::trigram()));
        let id = store.insert_catalog(Arc::clone(&u), cache);
        (store, id, u)
    }

    #[test]
    fn catalog_roundtrip() {
        let (store, id, _u) = store_with_catalog(8, Duration::from_secs(60));
        assert_eq!(store.catalogs_len(), 1);
        let entry = store.catalog(id).unwrap();
        assert_eq!(entry.universe.len(), 4);
        assert!(store.catalog(id + 1).is_none());
    }

    #[test]
    fn session_lifecycle() {
        let (store, cid, u) = store_with_catalog(8, Duration::from_secs(60));
        let (sid, evicted) = store.insert_session(cid, session(&u)).unwrap();
        assert!(evicted.is_empty());
        assert_eq!(store.sessions_len(), 1);
        let entry = store.session(sid).unwrap();
        assert_eq!(entry.catalog_id, cid);
        entry.session.lock().unwrap().run().unwrap();
        assert!(store.remove_session(sid));
        assert!(!store.remove_session(sid));
        assert!(store.session(sid).is_none());
    }

    #[test]
    fn unknown_catalog_rejected() {
        let (store, cid, u) = store_with_catalog(8, Duration::from_secs(60));
        assert_eq!(
            store.insert_session(cid + 9, session(&u)),
            Err(StoreError::UnknownCatalog)
        );
    }

    #[test]
    fn cap_refuses_when_nothing_idle() {
        let (store, cid, u) = store_with_catalog(2, Duration::from_secs(3600));
        store.insert_session(cid, session(&u)).unwrap();
        store.insert_session(cid, session(&u)).unwrap();
        assert_eq!(
            store.insert_session(cid, session(&u)),
            Err(StoreError::TooManySessions { limit: 2 })
        );
        assert_eq!(store.sessions_len(), 2);
    }

    #[test]
    fn cap_evicts_idle_sessions() {
        let (store, cid, u) = store_with_catalog(2, Duration::from_millis(1));
        let (first, _) = store.insert_session(cid, session(&u)).unwrap();
        let (second, _) = store.insert_session(cid, session(&u)).unwrap();
        std::thread::sleep(Duration::from_millis(5));
        let (third, evicted) = store.insert_session(cid, session(&u)).unwrap();
        assert!(!evicted.is_empty(), "evicted {evicted:?}");
        assert!(evicted.iter().all(|id| [first, second].contains(id)));
        assert!(store.session(third).is_some());
        // At least one of the old pair went.
        let survivors = [first, second]
            .iter()
            .filter(|&&id| store.session(id).is_some())
            .count();
        assert!(survivors < 2);
    }

    #[test]
    fn sweep_evicts_only_idle() {
        let (store, cid, u) = store_with_catalog(8, Duration::from_millis(20));
        let (old, _) = store.insert_session(cid, session(&u)).unwrap();
        std::thread::sleep(Duration::from_millis(30));
        let (fresh, _) = store.insert_session(cid, session(&u)).unwrap();
        store.session(fresh).unwrap().touch();
        let evicted = store.sweep_idle();
        assert_eq!(evicted, vec![old]);
        assert!(store.session(old).is_none());
        assert!(store.session(fresh).is_some());
    }

    #[test]
    fn sweep_skips_sessions_with_in_flight_work() {
        // Regression: an idle-by-the-clock session whose mutex is held by a
        // long-running solve must NOT be evicted out from under the solve.
        let (store, cid, u) = store_with_catalog(8, Duration::from_millis(1));
        let (busy, _) = store.insert_session(cid, session(&u)).unwrap();
        let (idle, _) = store.insert_session(cid, session(&u)).unwrap();
        std::thread::sleep(Duration::from_millis(10));

        let busy_entry = store.session(busy).unwrap();
        let guard = busy_entry.session.lock().unwrap(); // simulated in-flight solve
        let evicted = store.sweep_idle();
        assert_eq!(evicted, vec![idle], "held session must survive the sweep");
        assert!(store.session(busy).is_some());
        drop(guard);

        // Once the handler releases the lock, the session is fair game.
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(store.sweep_idle(), vec![busy]);
    }

    #[test]
    fn insert_at_cap_skips_locked_sessions() {
        let (store, cid, u) = store_with_catalog(1, Duration::from_millis(1));
        let (busy, _) = store.insert_session(cid, session(&u)).unwrap();
        std::thread::sleep(Duration::from_millis(10));
        let busy_entry = store.session(busy).unwrap();
        let guard = busy_entry.session.lock().unwrap();
        // The only eviction candidate is locked → creation is refused
        // rather than yanking a session mid-solve.
        assert_eq!(
            store.insert_session(cid, session(&u)),
            Err(StoreError::TooManySessions { limit: 1 })
        );
        drop(guard);
        let (_, evicted) = store.insert_session(cid, session(&u)).unwrap();
        assert_eq!(evicted, vec![busy]);
    }

    #[test]
    fn clear_empties_both_maps_but_keeps_ids_monotone() {
        let (store, cid, u) = store_with_catalog(8, Duration::from_secs(60));
        let (sid, _) = store.insert_session(cid, session(&u)).unwrap();
        store.clear();
        assert_eq!(store.catalogs_len(), 0);
        assert_eq!(store.sessions_len(), 0);
        assert!(store.catalog(cid).is_none());
        assert!(store.session(sid).is_none());
        // Ids keep counting up — a post-clear upload never reuses cid.
        let cache = Arc::new(SimilarityCache::build(&u, &JaccardNGram::trigram()));
        let fresh = store.insert_catalog(Arc::clone(&u), cache);
        assert!(fresh > cid);
    }

    #[test]
    fn with_id_inserts_pin_ids_and_bump_counters() {
        let store = Store::new(8, Duration::from_secs(60));
        let u = universe();
        let cache = Arc::new(SimilarityCache::build(&u, &JaccardNGram::trigram()));
        store.insert_catalog_with_id(7, Arc::clone(&u), Arc::clone(&cache));
        assert!(store.catalog(7).is_some());
        // Fresh uploads continue past the replayed id.
        assert_eq!(store.insert_catalog(Arc::clone(&u), cache), 8);

        store.insert_session_with_id(42, 7, session(&u)).unwrap();
        assert_eq!(store.session(42).unwrap().catalog_id, 7);
        let (next, _) = store.insert_session(7, session(&u)).unwrap();
        assert_eq!(next, 43);
        assert_eq!(
            store.insert_session_with_id(1, 999, session(&u)),
            Err(StoreError::UnknownCatalog)
        );
    }
}
