//! Compile-time pin: the engine, both routers and the obs handle they store
//! are `Send`, so a whole pipeline can move to the thread that owns it —
//! the engine's documented "`Send` but not shared" contract.  A stored
//! handle that regresses to a non-`Send` type (an `Rc`, say) fails this
//! test at compile time.

use rspan_distributed::{CompactRouter, DeltaRouter};
use rspan_engine::RspanEngine;
use rspan_obs::ObsHandle;

fn assert_send<T: Send>() {}

#[test]
fn engine_routers_and_obs_handle_are_send() {
    assert_send::<RspanEngine>();
    assert_send::<DeltaRouter>();
    assert_send::<CompactRouter>();
    assert_send::<ObsHandle>();
}
