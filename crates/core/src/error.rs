//! Error type of the G-MAP core crate.

use gmap_memsim::cache::ConfigError;
use std::error::Error;
use std::fmt;
use std::io;

/// Errors surfaced by profiling, generation, modeling and profile I/O.
#[derive(Debug)]
pub enum GmapError {
    /// An invalid cache/hierarchy configuration.
    Config(ConfigError),
    /// Profile (de)serialization failed.
    Serde(serde_json::Error),
    /// Underlying file I/O failed.
    Io(io::Error),
    /// The input streams were unusable (e.g. no memory accesses at all).
    EmptyProfile,
    /// A miniaturization factor outside `(0, ∞)`.
    BadScaleFactor {
        /// The offending factor.
        factor: f64,
    },
    /// A launch of more than `u32::MAX` warps (or a block of more than
    /// `u32::MAX` threads).
    LaunchTooLarge,
}

impl fmt::Display for GmapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GmapError::Config(e) => write!(f, "invalid configuration: {e}"),
            GmapError::Serde(e) => write!(f, "profile serialization failed: {e}"),
            GmapError::Io(e) => write!(f, "profile i/o failed: {e}"),
            GmapError::EmptyProfile => f.write_str("input contains no memory accesses"),
            GmapError::BadScaleFactor { factor } => {
                write!(f, "miniaturization factor {factor} must be positive")
            }
            GmapError::LaunchTooLarge => write!(f, "launch has more than {} warps", u32::MAX),
        }
    }
}

impl Error for GmapError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            GmapError::Config(e) => Some(e),
            GmapError::Serde(e) => Some(e),
            GmapError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for GmapError {
    fn from(e: ConfigError) -> Self {
        GmapError::Config(e)
    }
}

impl From<serde_json::Error> for GmapError {
    fn from(e: serde_json::Error) -> Self {
        GmapError::Serde(e)
    }
}

impl From<io::Error> for GmapError {
    fn from(e: io::Error) -> Self {
        GmapError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(GmapError::EmptyProfile
            .to_string()
            .contains("no memory accesses"));
        assert!(GmapError::BadScaleFactor { factor: -1.0 }
            .to_string()
            .contains("-1"));
    }

    #[test]
    fn conversions_work() {
        let e: GmapError = ConfigError::Zero.into();
        assert!(matches!(e, GmapError::Config(_)));
        let e: GmapError = io::Error::new(io::ErrorKind::NotFound, "x").into();
        assert!(matches!(e, GmapError::Io(_)));
        assert!(e.source().is_some());
    }
}
