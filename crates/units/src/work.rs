//! Work records: the plain structs of counters each layer fills as it
//! works (the memo caches, the transient engine, the ILP solver context)
//! and `--metrics` prints under the layer's prefix.

/// Declares a work record from a documented struct name, a `counters { .. }`
/// list of `u64` fields (event tallies) and an optional `gauges { .. }` list
/// of `usize` fields (table sizes), each field named as its metric. The
/// struct derives `Debug, Clone, Copy, PartialEq, Eq, Default` and gets
/// `counters()` and `gauges()` (`(name, value)` in declaration order), `+=`
/// (adds the counters, leaves the gauges) and `since(&before)` (the
/// counters' growth since `before`, this record's gauges).
#[macro_export]
macro_rules! work_record {
    (
        $(#[$doc:meta])*
        $vis:vis struct $name:ident {
            counters { $($(#[$counter_doc:meta])* $counter:ident,)* }
            $(gauges { $($(#[$gauge_doc:meta])* $gauge:ident,)* })?
        }
    ) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        $vis struct $name {
            $($(#[$counter_doc])* pub $counter: u64,)*
            $($($(#[$gauge_doc])* pub $gauge: usize,)*)?
        }

        impl $name {
            /// Every counter as `(name, value)`, in declaration order.
            pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> {
                [$((stringify!($counter), self.$counter)),*].into_iter()
            }

            /// Every gauge as `(name, value)`, in declaration order.
            pub fn gauges(&self) -> impl Iterator<Item = (&'static str, usize)> {
                [$($((stringify!($gauge), self.$gauge)),*)?].into_iter()
            }

            /// The counters' growth since `before`, an earlier record of
            /// the same source; the gauges are this record's.
            #[must_use]
            pub fn since(&self, before: &Self) -> Self {
                Self {
                    $($counter: self.$counter - before.$counter,)*
                    $($($gauge: self.$gauge,)*)?
                }
            }
        }

        /// Adds the counters of `work`; the gauges stay as they are.
        impl ::std::ops::AddAssign for $name {
            fn add_assign(&mut self, work: Self) {
                $(self.$counter += work.$counter;)*
            }
        }
    };
}

#[cfg(test)]
mod tests {
    crate::work_record! {
        struct Gauged {
            counters { a, b, }
            gauges { size, }
        }
    }

    crate::work_record! {
        struct Plain {
            counters { runs, }
        }
    }

    #[test]
    fn records_list_add_and_subtract_in_declaration_order() {
        let gauged = |a, b, size| Gauged { a, b, size };
        let before = gauged(1, 2, 3);
        assert!(before.counters().eq([("a", 1), ("b", 2)]));
        assert!(before.gauges().eq([("size", 3)]));
        let mut after = before;
        after += gauged(10, 20, 30);
        assert_eq!(after, gauged(11, 22, 3), "+= leaves the gauges");
        assert_eq!(after.since(&before), gauged(10, 20, 3), "since inverts +=");

        let mut plain = Plain { runs: 4 };
        assert!(plain.counters().eq([("runs", 4)]));
        assert_eq!(plain.gauges().count(), 0);
        plain += Plain { runs: 5 };
        assert_eq!(plain.since(&Plain { runs: 4 }), Plain { runs: 5 });
    }
}
