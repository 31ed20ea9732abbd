//! Host addressing.

use std::fmt;

/// A host-level network address (the moral equivalent of an IPv4 address).
///
/// The simulation routes on `Addr` directly rather than modeling full IP:
/// switches hold `Addr -> port` forwarding tables. `Addr(0)` is reserved as
/// "unspecified".
///
/// ```
/// use pmnet_net::Addr;
/// assert_eq!(Addr(258).to_string(), "10.0.1.2");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(pub u32);

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Render in a 10.x.y.z dotted style for readable traces.
        let v = self.0;
        write!(
            f,
            "10.{}.{}.{}",
            (v >> 16) & 0xff,
            (v >> 8) & 0xff,
            v & 0xff
        )
    }
}

impl From<u32> for Addr {
    fn from(v: u32) -> Addr {
        Addr(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_dotted() {
        assert_eq!(Addr(1).to_string(), "10.0.0.1");
        assert_eq!(Addr(0x0001_0203).to_string(), "10.1.2.3");
    }

    #[test]
    fn unspecified() {
        assert_eq!(Addr(0), Addr::default());
        assert_eq!(Addr::from(7u32), Addr(7));
    }
}
