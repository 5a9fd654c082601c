//! Mail lanes: every scheduled message and control closure, stored by
//! value beside the calendar.
//!
//! A calendar slot stays 24 bytes because it carries only where its
//! message waits, `(lane, slot)`, packed in one word. Each message type a world sends gets one
//! lane the first time it is sent: a slab of `Option<M>` slots with a free
//! list, found by `TypeId` in a short list (a world sends a handful of
//! types). Storing moves the message into a vacant slot, so once each lane
//! has grown to its high-water mark a send allocates nothing. The kernel
//! hands the receiver a [`Mail`], the receiver moves its value out with
//! [`crate::Ctx::open`], and the kernel then releases the slot, dropping
//! whatever was not opened.

use crate::AnyMsg;
use std::any::{Any, TypeId};
use std::marker::PhantomData;

/// A message waiting in its mail lane, as [`crate::Actor::handle_mail`]
/// receives it. [`crate::Ctx::open`] moves the value out by type;
/// whatever is not opened is dropped when the handler returns. It lives
/// only as long as its delivery, so no actor can keep it for later.
#[derive(Debug)]
pub struct Mail<'a> {
    lane: u32,
    slot: u32,
    delivery: PhantomData<&'a ()>,
}

/// Where one stored message waits: what the calendar carries.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct Stored {
    pub(crate) lane: u32,
    pub(crate) slot: u32,
}

impl Stored {
    /// The mail its receiver gets.
    pub(crate) fn mail<'a>(self) -> Mail<'a> {
        Mail { lane: self.lane, slot: self.slot, delivery: PhantomData }
    }
}

/// The messages of one type.
struct Lane<M> {
    slots: Vec<Option<M>>,
    /// Vacant slots: each popped when a message is stored, pushed when
    /// its delivery ends.
    free: Vec<u32>,
}

/// What the kernel does to a lane without knowing its type.
trait ErasedLane: Any {
    /// Move the message in `slot` out, boxed.
    fn take_boxed(&mut self, slot: u32) -> Option<AnyMsg>;
    /// Drop whatever `slot` still holds and make it vacant.
    fn release(&mut self, slot: u32);
    /// Occupied slots and slots in all.
    #[cfg(test)]
    fn occupancy(&self) -> (usize, usize);
}

impl<M: Any> ErasedLane for Lane<M> {
    fn take_boxed(&mut self, slot: u32) -> Option<AnyMsg> {
        let msg = self.slots[slot as usize].take()?;
        Some(Box::new(msg))
    }

    fn release(&mut self, slot: u32) {
        self.slots[slot as usize] = None;
        self.free.push(slot);
    }

    #[cfg(test)]
    fn occupancy(&self) -> (usize, usize) {
        (self.slots.iter().filter(|s| s.is_some()).count(), self.slots.len())
    }
}

fn typed<M: Any>(lane: &mut dyn ErasedLane) -> Option<&mut Lane<M>> {
    (lane as &mut dyn Any).downcast_mut()
}

/// Every lane of one simulation.
#[derive(Default)]
pub(crate) struct MailLanes {
    /// The message type of each lane, scanned by [`MailLanes::store`].
    types: Vec<TypeId>,
    lanes: Vec<Box<dyn ErasedLane>>,
}

impl MailLanes {
    /// Move `msg` into a vacant slot of its type's lane, opening the lane
    /// on the type's first send.
    pub(crate) fn store<M: Any>(&mut self, msg: M) -> Stored {
        let ty = TypeId::of::<M>();
        let lane = match self.types.iter().position(|&t| t == ty) {
            Some(lane) => lane,
            None => {
                self.types.push(ty);
                self.lanes.push(Box::new(Lane::<M> { slots: Vec::new(), free: Vec::new() }));
                self.lanes.len() - 1
            }
        };
        let Some(l) = typed::<M>(&mut *self.lanes[lane]) else {
            unreachable!("a lane holds the type it is listed under")
        };
        let slot = match l.free.pop() {
            Some(slot) => {
                l.slots[slot as usize] = Some(msg);
                slot
            }
            None => {
                assert!(l.slots.len() < u32::MAX as usize, "mail lane exceeds u32 slots");
                l.slots.push(Some(msg));
                (l.slots.len() - 1) as u32
            }
        };
        Stored { lane: lane as u32, slot }
    }

    /// Move the message out if it is an `M`; hand the mail back if not.
    pub(crate) fn open<'a, M: Any>(&mut self, mail: Mail<'a>) -> Result<M, Mail<'a>> {
        if self.types[mail.lane as usize] != TypeId::of::<M>() {
            return Err(mail);
        }
        let lane = typed::<M>(&mut *self.lanes[mail.lane as usize]);
        let Some(msg) = lane.and_then(|l| l.slots[mail.slot as usize].take()) else {
            unreachable!("mail is opened at most once")
        };
        Ok(msg)
    }

    /// Move the message out, boxed.
    pub(crate) fn open_boxed(&mut self, mail: Mail<'_>) -> AnyMsg {
        let Some(msg) = self.lanes[mail.lane as usize].take_boxed(mail.slot) else {
            unreachable!("mail is opened at most once")
        };
        msg
    }

    /// End a delivery: drop what the receiver left and free the slot.
    pub(crate) fn release(&mut self, at: Stored) {
        self.lanes[at.lane as usize].release(at.slot);
    }

    /// `(occupied, in all)` slots of every lane, in lane order.
    #[cfg(test)]
    pub(crate) fn occupancy(&self) -> Vec<(usize, usize)> {
        self.lanes.iter().map(|l| l.occupancy()).collect()
    }
}
