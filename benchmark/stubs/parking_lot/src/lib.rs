//! Empty stand-in for `parking_lot`: `psc-core` and `psc-rasc` declare the
//! dependency but use nothing from it.
