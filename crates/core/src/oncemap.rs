//! The build-once map behind [`crate::WorkloadCache`] and
//! [`crate::ReplayCache`].

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// One entry: a once-cell for the value plus its build lock.
type Slot<V> = (OnceLock<Arc<V>>, Mutex<()>);

/// Values built at most once per key and shared as [`Arc`]s. The map
/// lock is only ever held for a key lookup; builds run under their own
/// key's lock, so callers needing the *same* key build once and wait
/// while *different* keys build concurrently.
#[derive(Debug)]
pub(crate) struct OnceMap<V> {
    slots: Mutex<HashMap<String, Arc<Slot<V>>>>,
}

impl<V> Default for OnceMap<V> {
    fn default() -> Self {
        OnceMap {
            slots: Mutex::default(),
        }
    }
}

impl<V> OnceMap<V> {
    /// Returns the value for `key`, running `build` under the key's lock
    /// if no value is ready yet. A failed build publishes nothing and
    /// drops its slot, so a later caller can retry.
    pub(crate) fn get_or_try_build<E>(
        &self,
        key: &str,
        build: impl FnOnce() -> Result<V, E>,
    ) -> Result<Arc<V>, E> {
        let slot = Arc::clone(self.lock().entry(key.to_string()).or_default());
        let (ready, building) = &*slot;
        if let Some(v) = ready.get() {
            return Ok(Arc::clone(v));
        }
        let _build = building.lock().expect("build lock poisoned");
        // Re-check under the lock: a racing builder may have finished.
        if let Some(v) = ready.get() {
            return Ok(Arc::clone(v));
        }
        match build() {
            Ok(v) => Ok(Arc::clone(ready.get_or_init(|| Arc::new(v)))),
            Err(e) => {
                let mut slots = self.lock();
                if slots.get(key).is_some_and(|s| Arc::ptr_eq(s, &slot)) {
                    slots.remove(key);
                }
                Err(e)
            }
        }
    }

    /// Whether a value for `key` is ready (without building it).
    pub(crate) fn is_ready(&self, key: &str) -> bool {
        self.lock().get(key).is_some_and(|s| s.0.get().is_some())
    }

    /// Number of ready values (slots still being built do not count).
    pub(crate) fn len(&self) -> usize {
        self.lock().values().filter(|s| s.0.get().is_some()).count()
    }

    /// Drops every entry (outstanding `Arc`s stay valid).
    pub(crate) fn clear(&self) {
        self.lock().clear();
    }

    fn lock(&self) -> MutexGuard<'_, HashMap<String, Arc<Slot<V>>>> {
        self.slots.lock().expect("once-map poisoned")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failed_builds_publish_nothing_and_can_be_retried() {
        let map = OnceMap::<u32>::default();
        assert_eq!(map.get_or_try_build("k", || Err("no")), Err("no"));
        assert!(!map.is_ready("k"));
        assert_eq!(map.len(), 0);
        let v = map.get_or_try_build("k", || Ok::<_, ()>(7)).unwrap();
        assert_eq!(*v, 7);
        // Built once: a later build closure never runs.
        let again = map.get_or_try_build("k", || -> Result<u32, ()> { unreachable!() });
        assert!(Arc::ptr_eq(&v, &again.unwrap()));
        assert!(map.is_ready("k") && map.len() == 1);
        map.clear();
        assert_eq!(map.len(), 0);
    }
}
