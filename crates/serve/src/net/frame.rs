//! Length-prefixed binary framing: the serving flavour of the shared
//! codec in [`tcss_core::frame`], whose docs hold the decoder contract.
//! Serving frames carry no trailer — `[u32 LE len][payload]` — and
//! decoders are built with [`FrameDecoder::new`] and a payload cap
//! ([`DEFAULT_MAX_FRAME_LEN`] unless configured). Message semantics live
//! in [`crate::net::proto`].

pub use tcss_core::frame::{
    encode_frame, write_frame, FrameDecoder, FrameError, DEFAULT_MAX_FRAME_LEN, HEADER_LEN,
};
