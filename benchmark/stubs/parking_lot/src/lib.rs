//! Offline stand-in: `ntadoc-pmem` declares `parking_lot` but uses nothing from it.
